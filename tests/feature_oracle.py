"""Reference feature extractor: walks a window's event objects one by one.

This is the object-based extractor the columnar ``extract_features``
replaced. It resolves every feature name with a string split and a dict
lookup per window, and is kept here only as the oracle the columnar code is
checked against (see test_features_oracle.py).
"""

import math
from collections import Counter

import numpy as np

from cloudguard.features import TS_SERIES, FeatureLayout, entropy_nats
from cloudguard.telemetry import BEHAVIOR_ACTIONS, LOG_SUBSYSTEMS, TelemetryWindow

_PORT_BUCKETS = 32
_BYTE_LOG_BUCKETS = 24
_PACKET_LOG_BUCKETS = 12
_DURATION_LOG_BUCKETS = 16


def _mean_std_max_min(values: list[float]) -> tuple[float, float, float, float]:
    if not values:
        return 0.0, 0.0, 0.0, 0.0
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std()), float(arr.max()), float(arr.min())


def _log2_bucket(value: int, n_buckets: int) -> int:
    return min(int(math.log2(value + 1)), n_buckets - 1)


def _traffic_stats(window: TelemetryWindow) -> dict[str, float]:
    flows = [ev.flow for ev in window.events if ev.flow is not None]
    out: dict[str, float] = {}
    seconds = window.duration_ms / 1000.0
    n = len(flows)
    out["flow_count"] = float(n)
    out["flow_rate"] = n / seconds
    if n == 0:
        return out
    byte_list = [f.bytes for f in flows]
    packet_list = [f.packets for f in flows]
    duration_list = [f.duration_ms for f in flows]
    b_mean, b_std, b_max, b_min = _mean_std_max_min(byte_list)
    p_mean, p_std, p_max, _ = _mean_std_max_min(packet_list)
    d_mean, d_std, d_max, _ = _mean_std_max_min(duration_list)
    byte_sum = float(sum(byte_list))
    packet_sum = float(sum(packet_list))
    out.update({
        "byte_sum": byte_sum, "byte_rate": byte_sum / seconds,
        "byte_mean": b_mean, "byte_std": b_std, "byte_max": b_max,
        "byte_min": b_min,
        "packet_sum": packet_sum, "packet_rate": packet_sum / seconds,
        "packet_mean": p_mean, "packet_std": p_std, "packet_max": p_max,
        "duration_mean": d_mean, "duration_std": d_std, "duration_max": d_max,
        "bytes_per_packet_mean": byte_sum / packet_sum if packet_sum else 0.0,
        "dominant_flow_ratio": b_max / byte_sum if byte_sum else 0.0,
    })
    syn = sum(1 for f in flows if f.syn_flag)
    tcp = sum(1 for f in flows if f.protocol == "tcp")
    out.update({
        "syn_count": float(syn), "syn_ratio": syn / n,
        "tcp_count": float(tcp), "tcp_ratio": tcp / n,
        "udp_count": float(n - tcp), "udp_ratio": (n - tcp) / n,
    })
    ports = Counter(f.port for f in flows)
    out["distinct_ports"] = float(len(ports))
    out["port_entropy"] = entropy_nats(ports)
    out["low_port_ratio"] = sum(1 for f in flows if f.port < 1024) / n
    out["high_port_count"] = float(sum(1 for f in flows if f.port >= 1024))
    srcs = Counter(f.src for f in flows)
    dsts = Counter(f.dst for f in flows)
    out["distinct_src"] = float(len(srcs))
    out["src_entropy"] = entropy_nats(srcs)
    out["distinct_dst"] = float(len(dsts))
    out["dst_entropy"] = entropy_nats(dsts)
    markers = sum(1 for f in flows if f.payload_class > 0)
    out["payload_marker_count"] = float(markers)
    out["payload_marker_ratio"] = markers / n
    src_counts = list(srcs.values())
    dst_counts = list(dsts.values())
    out["flows_per_src_mean"] = float(np.mean(src_counts))
    out["flows_per_src_max"] = float(max(src_counts))
    out["flows_per_dst_mean"] = float(np.mean(dst_counts))
    out["flows_per_dst_max"] = float(max(dst_counts))
    for f in flows:
        bucket = min(f.port // 2048, _PORT_BUCKETS - 1)
        out[f"port_bucket_{bucket:02d}"] = out.get(f"port_bucket_{bucket:02d}", 0.0) + 1.0
        bb = _log2_bucket(f.bytes, _BYTE_LOG_BUCKETS)
        out[f"byte_log2_{bb:02d}"] = out.get(f"byte_log2_{bb:02d}", 0.0) + 1.0
        pb = _log2_bucket(f.packets, _PACKET_LOG_BUCKETS)
        out[f"packet_log2_{pb:02d}"] = out.get(f"packet_log2_{pb:02d}", 0.0) + 1.0
        db = _log2_bucket(f.duration_ms, _DURATION_LOG_BUCKETS)
        out[f"duration_log2_{db:02d}"] = out.get(f"duration_log2_{db:02d}", 0.0) + 1.0
        pc = min(max(f.payload_class, 0), 3)
        out[f"payload_class_{pc}"] = out.get(f"payload_class_{pc}", 0.0) + 1.0
    return out


def _timeseries_stats(window: TelemetryWindow, n_bins: int) -> dict[str, float]:
    duration = window.duration_ms
    bins = {series: np.zeros(n_bins) for series in TS_SERIES}
    for ev in window.events:
        # window-relative offset keeps features invariant under time shifts
        b = min((ev.timestamp - window.start) * n_bins // duration, n_bins - 1)
        if ev.flow is not None:
            bins["flows"][b] += 1.0
            bins["bytes"][b] += ev.flow.bytes
        elif ev.log is not None:
            bins["logs"][b] += 1.0
        else:
            bins["actions"][b] += 1.0
    out: dict[str, float] = {}
    for series in TS_SERIES:
        arr = bins[series]
        for i in range(n_bins):
            out[f"{series}_bin_{i:02d}"] = float(arr[i])
        for i in range(n_bins - 1):
            out[f"{series}_delta_{i:02d}"] = float(arr[i + 1] - arr[i])
        mean = arr.mean()
        out[f"{series}_peak_ratio"] = float(arr.max() / mean) if mean > 0 else 0.0
    return out


def _behavior_stats(window: TelemetryWindow) -> dict[str, float]:
    actions = [ev.behavior for ev in window.events if ev.behavior is not None]
    logs = [ev.log for ev in window.events if ev.log is not None]
    out: dict[str, float] = {}
    seconds = window.duration_ms / 1000.0
    n = len(actions)
    out["event_count"] = float(n)
    out["event_rate"] = n / seconds
    if n:
        failures = 0
        per_action = Counter()
        per_action_fail = Counter()
        users = Counter()
        failed_logins_per_user = Counter()
        for a in actions:
            per_action[a.action] += 1
            users[a.user_id] += 1
            if not a.success:
                failures += 1
                per_action_fail[a.action] += 1
                if a.action == "login":
                    failed_logins_per_user[a.user_id] += 1
        for name in BEHAVIOR_ACTIONS:
            count = per_action.get(name, 0)
            fail = per_action_fail.get(name, 0)
            out[f"action_{name}_count"] = float(count)
            out[f"action_{name}_failure_count"] = float(fail)
            out[f"action_{name}_success_ratio"] = (count - fail) / count if count else 0.0
        out["failure_count"] = float(failures)
        out["failure_ratio"] = failures / n
        out["distinct_users"] = float(len(users))
        out["user_entropy"] = entropy_nats(users)
        per_user = list(users.values())
        out["actions_per_user_mean"] = float(np.mean(per_user))
        out["actions_per_user_max"] = float(max(per_user))
        out["failed_logins_per_user_max"] = float(
            max(failed_logins_per_user.values()) if failed_logins_per_user else 0
        )
    out["log_count"] = float(len(logs))
    out["log_rate"] = len(logs) / seconds
    if logs:
        severities = np.asarray([lg.severity for lg in logs], dtype=np.float64)
        out["severity_mean"] = float(severities.mean())
        out["severity_std"] = float(severities.std())
        out["severity_max"] = float(severities.max())
        high = int((severities >= 5).sum())
        out["high_severity_count"] = float(high)
        out["high_severity_ratio"] = high / len(logs)
        for sev in range(8):
            out[f"severity_hist_{sev}"] = float(int((severities == sev).sum()))
        subsystems = Counter(lg.subsystem for lg in logs)
        for name in LOG_SUBSYSTEMS:
            out[f"subsystem_{name}_count"] = float(subsystems.get(name, 0))
        out["subsystem_entropy"] = entropy_nats(subsystems)
        codes = Counter(lg.event_code for lg in logs)
        out["distinct_event_codes"] = float(len(codes))
        out["event_code_entropy"] = entropy_nats(codes)
    return out


def reference_features(window: TelemetryWindow, layout: FeatureLayout) -> np.ndarray:
    """The feature vector, computed event by event."""
    stats = {
        "traffic": _traffic_stats(window),
        "time_series": _timeseries_stats(window, layout.n_bins),
        "behavior": _behavior_stats(window),
    }
    vec = np.zeros(layout.dim)
    for i, full_name in enumerate(layout.names):
        segment, name = full_name.split(".", 1)
        vec[i] = stats[segment].get(name, 0.0)
    return vec

