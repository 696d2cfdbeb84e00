"""Checkpoint round trips and corruption handling."""

import json
import struct
import zipfile

import numpy as np
import pytest

from cloudguard.errors import CheckpointError
from cloudguard.nn import (
    Conv1dLayer,
    DenseLayer,
    ModelGraph,
    load_params,
    map_params,
    restore_into,
    save_params,
)
from cloudguard.nn.layers import ALIGNMENT


def tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    return ModelGraph([
        DenseLayer(4, 3, activation="relu", rng=rng),
        DenseLayer(3, 2, activation="softmax", rng=rng),
    ])


class TestRoundTrip:
    def test_bit_exact_params_and_meta(self, tmp_path):
        model = tiny_model(seed=8)
        path = str(tmp_path / "model.npz")
        meta = {"classes": ["a", "b"], "feature_dim": 4, "note": "round trip"}
        save_params(path, model.parameters(), meta)
        params, got_meta = load_params(path)
        assert got_meta == meta
        for k, arr in model.parameters().items():
            np.testing.assert_array_equal(params[k], arr)

    def test_restore_reproduces_outputs_exactly(self, tmp_path):
        src = tiny_model(seed=1)
        path = str(tmp_path / "m.npz")
        save_params(path, src.parameters(), {})
        dst = tiny_model(seed=2)
        params, _ = load_params(path)
        restore_into(dst, params, path)
        x = np.random.default_rng(3).normal(size=(5, 4))
        np.testing.assert_array_equal(src.forward(x), dst.forward(x))

    def test_mapped_params_are_read_only_views_equal_to_the_saved_ones(self, tmp_path):
        model = tiny_model(seed=5)
        path = str(tmp_path / "m.npz")
        save_params(path, model.parameters(), {"note": "mapped"})
        params, meta = map_params(path)
        assert meta == {"note": "mapped"}
        assert set(params) == set(model.parameters())
        for name, arr in model.parameters().items():
            assert not params[name].flags.writeable
            np.testing.assert_array_equal(params[name], arr)

    def test_restore_rebuilds_each_layer_around_aligned_copies(self, tmp_path):
        src = tiny_model(seed=6)
        path = str(tmp_path / "m.npz")
        save_params(path, src.parameters(), {})
        dst = tiny_model(seed=7)
        params, _ = map_params(path)
        restore_into(dst, params, path)
        for name, arr in dst.parameters().items():
            assert arr.flags.writeable and arr.ctypes.data % ALIGNMENT == 0
            assert not np.shares_memory(arr, params[name])
            np.testing.assert_array_equal(arr, src.parameters()[name])

    def test_archive_is_stored_uncompressed(self, tmp_path):
        path = tmp_path / "m.npz"
        save_params(str(path), tiny_model().parameters(), {})
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_STORED}

    def test_compressed_archive_still_loads(self, tmp_path):
        model = tiny_model(seed=4)
        path = str(tmp_path / "old.npz")
        meta = {"kind": "detector", "note": "written compressed"}
        blob = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                             dtype=np.uint8)
        np.savez_compressed(path, meta_json=blob, **model.parameters())
        params, got_meta = load_params(path)
        assert got_meta == meta
        assert set(params) == set(model.parameters())
        for k, arr in model.parameters().items():
            np.testing.assert_array_equal(params[k], arr)


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_params(str(tmp_path / "nope.npz"))

    def test_truncated_archive(self, tmp_path):
        path = tmp_path / "bad.npz"
        model = tiny_model()
        save_params(str(path), model.parameters(), {})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_params(str(path))

    def test_a_flipped_weight_byte_fails_the_member_crc(self, tmp_path):
        rng = np.random.default_rng(9)
        model = ModelGraph([Conv1dLayer(4, 3, 2, rng=rng),
                            DenseLayer(3, 2, activation="softmax", rng=rng)])
        path = tmp_path / "conv.npz"
        save_params(str(path), model.parameters(), {})
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("0.kernel.npy")
        raw = bytearray(path.read_bytes())
        # the local header's name and extra lengths, then the member's last byte,
        # which lies in the array data after the .npy header
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        at = info.header_offset + 30 + name_len + extra_len + info.file_size - 1
        raw[at] ^= 0x01
        path.write_bytes(bytes(raw))
        for read in (load_params, map_params):
            with pytest.raises(CheckpointError, match=r"conv\.npz.*CRC.*'0\.kernel\.npy'"):
                read(str(path))

    def test_restore_names_missing_field(self, tmp_path):
        model = tiny_model()
        params = dict(model.parameters())
        del params["1.bias"]
        with pytest.raises(CheckpointError, match=r"1\.bias"):
            restore_into(model, params)

    def test_restore_names_unexpected_field(self, tmp_path):
        model = tiny_model()
        params = dict(model.parameters())
        params["9.ghost"] = np.zeros(2)
        with pytest.raises(CheckpointError, match=r"9\.ghost"):
            restore_into(model, params)

    def test_restore_names_shape_mismatch(self, tmp_path):
        model = tiny_model()
        params = {k: v.copy() for k, v in model.parameters().items()}
        params["0.weights"] = np.zeros((4, 9))
        with pytest.raises(CheckpointError, match=r"0\.weights"):
            restore_into(model, params)

    def test_meta_key_reserved(self, tmp_path):
        with pytest.raises(CheckpointError, match="reserved"):
            save_params(str(tmp_path / "x.npz"), {"meta_json": np.zeros(1)}, {})
