"""Hypothesis strategies for hand-built telemetry windows."""

from hypothesis import strategies as st

from cloudguard.telemetry import (
    BEHAVIOR_ACTIONS,
    LABELS,
    LOG_SUBSYSTEMS,
    BehaviorData,
    FlowData,
    LogData,
    TelemetryEvent,
    TelemetryWindow,
)

# few names, so windows repeat them; some are spelled like fixed strings
_names = st.sampled_from(["10.0.0.1", "10.0.0.2", "srv-1", "user-1", "tcp", "login",
                          "db", "", "z"])
_flows = st.builds(
    FlowData, src=_names, dst=_names, port=st.integers(0, 70_000),
    protocol=st.sampled_from(["tcp", "udp", "icmp"]), bytes=st.integers(0, 10**9),
    packets=st.integers(0, 10**6), duration_ms=st.integers(0, 10**6),
    syn_flag=st.booleans(), payload_class=st.integers(-3, 6))
_logs = st.builds(
    LogData, severity=st.integers(-2, 10), event_code=st.integers(0, 1000),
    subsystem=st.sampled_from(LOG_SUBSYSTEMS + ("other",)))
_behaviors = st.builds(
    BehaviorData, user_id=_names,
    action=st.sampled_from(BEHAVIOR_ACTIONS + ("reboot",)), success=st.booleans())


@st.composite
def random_windows(draw):
    """(events, window built from them): up to 60 events, sorted by time."""
    start = draw(st.integers(0, 10**7))
    duration = draw(st.integers(1, 5000))
    payloads = draw(st.lists(st.one_of(_flows, _logs, _behaviors), max_size=60))
    offsets = sorted(draw(st.lists(st.integers(0, duration - 1),
                                   min_size=len(payloads), max_size=len(payloads))))
    kinds = {FlowData: "flow", LogData: "log", BehaviorData: "behavior"}
    events = [TelemetryEvent(kind=kinds[type(p)], timestamp=start + off,
                             **{kinds[type(p)]: p})
              for off, p in zip(offsets, payloads)]
    label = draw(st.sampled_from((None,) + LABELS))
    return events, TelemetryWindow(start=start, end=start + duration, events=events,
                                   label=label)
