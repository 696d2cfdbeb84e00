"""Checkpoint round trips and corruption handling."""

import json
import struct
import warnings
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
    save_params,
)
from cloudguard.nn.checkpoint import check_all_taken, take
from cloudguard.nn.layers import ALIGNMENT


def tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    return ModelGraph([
        DenseLayer(4, 3, activation="relu", rng=rng),
        DenseLayer(3, 2, activation="softmax", rng=rng),
    ])


def tiny_model_around(params, path):
    """tiny_model's layers built around the arrays ``take`` checks out of
    ``params``, every one of which must be taken."""
    model = ModelGraph([
        DenseLayer.around(take(params, "0.", DenseLayer.shapes(4, 3), path), activation="relu"),
        DenseLayer.around(take(params, "1.", DenseLayer.shapes(3, 2), path),
                          activation="softmax"),
    ])
    check_all_taken(params, path)
    return model


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

    def test_layers_around_loaded_params_reproduce_outputs_exactly(self, tmp_path):
        src = tiny_model(seed=1)
        path = str(tmp_path / "m.npz")
        save_params(path, src.parameters(), {})
        params, _ = load_params(path)
        dst = tiny_model_around(params, path)
        assert params == {}
        x = np.random.default_rng(3).normal(size=(5, 4))
        np.testing.assert_array_equal(src.forward(x), dst.forward(x))

    def test_layers_around_mapped_params_hold_aligned_copies_of_their_own(self, tmp_path):
        src = tiny_model(seed=6)
        path = str(tmp_path / "m.npz")
        save_params(path, src.parameters(), {})
        mapped, _ = map_params(path)
        dst = tiny_model_around(dict(mapped), path)
        for name, arr in dst.parameters().items():
            assert arr.flags.writeable and arr.ctypes.data % ALIGNMENT == 0
            assert not np.shares_memory(arr, mapped[name])
            np.testing.assert_array_equal(arr, src.parameters()[name])

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

    def test_archive_is_stored_uncompressed(self, tmp_path):
        path = tmp_path / "m.npz"
        save_params(str(path), tiny_model().parameters(), {})
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_STORED}

    def test_compressed_archive_is_rejected(self, tmp_path):
        # every member is read as a view of the mapped file, so a deflated
        # one is refused by name rather than inflated
        model = tiny_model(seed=4)
        path = str(tmp_path / "old.npz")
        meta = {"kind": "detector", "note": "written compressed"}
        blob = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                             dtype=np.uint8)
        np.savez_compressed(path, meta_json=blob, **model.parameters())
        with pytest.raises(CheckpointError, match=r"'meta_json\.npy' is compressed"):
            load_params(path)


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

    @pytest.mark.parametrize("values", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]])
    def test_a_non_finite_value_is_named(self, tmp_path, values):
        path = str(tmp_path / "x.npz")
        weights = np.ones((3, 4))
        weights[1, :len(values)] = values
        save_params(path, {"0.w": np.ones(2), "1.w": weights}, {})
        for read in (load_params, map_params):
            with pytest.raises(CheckpointError,
                               match=r"x\.npz: parameter '1\.w' holds a NaN or an infinity"), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")  # the message is the only report
                read(path)

    def test_finite_values_whose_sum_overflows_load(self, tmp_path):
        path = str(tmp_path / "x.npz")
        save_params(path, {"0.w": np.full(3, np.finfo(np.float64).max)}, {})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is expected, not reported
            params, _ = map_params(path)
        assert (params["0.w"] == np.finfo(np.float64).max).all()

    def test_an_empty_member_counts_as_finite(self, tmp_path):
        path = str(tmp_path / "x.npz")
        save_params(path, {"0.b": np.zeros(0)}, {})
        params, _ = map_params(path)
        assert params["0.b"].shape == (0,)

    def test_meta_key_reserved(self, tmp_path):
        with pytest.raises(CheckpointError, match="reserved"):
            save_params(str(tmp_path / "x.npz"), {"meta_json": np.zeros(1)}, {})
