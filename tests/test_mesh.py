import gc
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hecsim.errors import InvalidConfigError, InvalidInputError
from hecsim.mesh import (BrokerFailure, FailoverConfig, LinkModel,
                         MeshNetwork, Message, NetworkConfig, Partition, QoS,
                         _row_dict, _trace_line, heartbeat_and_failover,
                         topic_matches)
from hecsim.sigio import write_jsonl
from oracles import delivery_probability, partition_severs


def make_net(**kwargs):
    return MeshNetwork(NetworkConfig(**kwargs))


def collect(net, client_id="sub", pattern="t/+"):
    """Add a subscriber that appends (t, payload) to the returned list."""
    got = []
    net.add_client(client_id,
                   on_message=lambda cid, msg, t: got.append((t, msg.payload)))
    net.subscribe(client_id, pattern)
    return got


# ---- topic matching ----

@pytest.mark.parametrize("pattern,topic,expected", [
    ("a/b/c", "a/b/c", True),
    ("a/+/c", "a/b/c", True),
    ("+/+/+", "a/b/c", True),
    ("a/b", "a/b/c", False),
    ("a/b/c/d", "a/b/c", False),
    ("a/+/d", "a/b/c", False),
    ("+", "a/b", False),
    ("hec/pn/+/frame", "hec/pn/pn-3/frame", True),
    ("hec/pn/+/frame", "hec/pn/pn-3/status", False),
])
def test_topic_matches_cases(pattern, topic, expected):
    assert topic_matches(pattern, topic) is expected


SEGMENT = st.text(alphabet="abc", min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(st.lists(SEGMENT, min_size=1, max_size=4), st.data())
def test_topic_matches_properties(segments, data):
    topic = "/".join(segments)
    assert topic_matches(topic, topic)
    wild = [data.draw(st.booleans()) for _ in segments]
    pattern = "/".join("+" if w else s for s, w in zip(segments, wild))
    assert topic_matches(pattern, topic)
    assert not topic_matches(pattern + "/x", topic)


@pytest.mark.parametrize("topic", [
    "", "/", "hec//x/frame", "/a", "a/", "hec/pn/+/frame", "+", "a/+x", "a/#",
    "#"])
def test_publish_rejects_a_topic_the_matcher_cannot_honour(topic):
    # the subscriber's '+' would match an empty level or a literal '+'
    net = make_net()
    collect(net, pattern="hec/+/+/frame")
    net.add_client("pub")
    with pytest.raises(InvalidInputError, match=re.escape(f"topic {topic!r}")):
        net.publish("pub", topic, 1)
    assert len(net.trace) == 0


@pytest.mark.parametrize("pattern", [
    "", "a//b", "a/", "#", "a/#", "hec/+x/y", "x+/y", "a/++"])
def test_subscribe_rejects_a_pattern_the_matcher_cannot_honour(pattern):
    net = make_net()
    net.add_client("sub")
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"pattern {pattern!r}")):
        net.subscribe("sub", pattern)
    assert net.clients["sub"].subscriptions == []
    net.subscribe("sub", "+/a/+")  # a whole-level '+' is fine


# ---- config plumbing ----

def test_network_config_round_trip(tmp_path):
    cfg = NetworkConfig(
        brokers=("b1", "b2"),
        default_link=LinkModel(latency_s=0.02, jitter_s=0.01, loss_prob=0.1),
        link_overrides={"pn-1": LinkModel(latency_s=0.2)},
        partitions=(Partition(t_start_s=1.0, t_end_s=2.0,
                              nodes=frozenset({"pn-1"})),),
        failover=FailoverConfig(heartbeat_interval_s=0.5, miss_threshold=2),
        broker_failures=(BrokerFailure(broker_id="b1", t_s=5.0),),
        max_retries=4, retry_interval_s=0.1, buffer_cap=16, seed=99)
    back = NetworkConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert back == cfg
    path = tmp_path / "net.json"
    path.write_text(json.dumps(cfg.to_json()))
    assert NetworkConfig.load(path) == cfg


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        NetworkConfig(brokers=())
    with pytest.raises(InvalidConfigError):
        NetworkConfig(max_retries=-1)
    with pytest.raises(InvalidConfigError):
        LinkModel(loss_prob=1.5)
    with pytest.raises(InvalidConfigError):
        Partition(t_start_s=2.0, t_end_s=1.0, nodes=frozenset())
    with pytest.raises(InvalidConfigError):
        FailoverConfig(miss_threshold=0)
    # the constructors reject NaN, not only the file codec
    nan = float("nan")
    for make in [lambda: LinkModel(latency_s=nan),
                 lambda: LinkModel(jitter_s=nan),
                 lambda: FailoverConfig(heartbeat_interval_s=nan),
                 lambda: NetworkConfig(retry_interval_s=nan),
                 lambda: Partition(nan, 5.0, frozenset({"pn-1"})),
                 lambda: Partition(0.0, nan, frozenset({"pn-1"}))]:
        with pytest.raises(InvalidConfigError):
            make()
    # a broker id is the last level of its heartbeat topic, and an empty one
    # would read in trace rows as the "to" of no broker
    for bad in ("", "b/x", "+", "b#1"):
        with pytest.raises(InvalidConfigError, match=re.escape(
                f"broker id must be one plain topic segment, got {bad!r}")):
            NetworkConfig(brokers=("broker-a", bad))
    with pytest.raises(InvalidConfigError,
                       match=re.escape("broker 'b1' is listed twice")):
        NetworkConfig(brokers=("b1", "b2", "b1"))
    for data, where in [
        ({"default_link": {"bogus_field": 1}},
         "NetworkConfig.default_link: unknown key 'bogus_field'"),
        ({"failover": {"miss_treshold": 2}},
         "NetworkConfig.failover: unknown key 'miss_treshold'"),
        ({"brokers": "broker-a"}, "NetworkConfig.brokers: expected a list"),
        ({"max_retries": 2.0}, "NetworkConfig.max_retries: expected an integer"),
        ({"buffer_cap": False}, "NetworkConfig.buffer_cap: expected an integer"),
        ({"link_overrides": {"pn-1": {"loss_prob": 2.0}}},
         "NetworkConfig.link_overrides.pn-1: loss_prob"),
        ({"partitions": [{"t_start_s": 1.0, "t_end_s": 2.0}]},
         "NetworkConfig.partitions[0]: missing key 'nodes'"),
        # every broker a config names must be one of its brokers
        # broker order is the order of brokers; there is no priority list
        ({"failover": {"broker_priority": ["broker-a"]}},
         "NetworkConfig.failover: unknown key 'broker_priority'"),
        ({"brokers": ["b1"],
          "broker_failures": [{"broker_id": "b2", "t_s": 5.0}]},
         "NetworkConfig: unknown brokers ['b2']"),
        ({"brokers": ["b1", "b1"]},
         "NetworkConfig: broker 'b1' is listed twice"),
        ({"partitions": [{"t_start_s": 1.0, "t_end_s": float("nan"),
                          "nodes": ["pn-1"]}]},
         "NetworkConfig.partitions[0].t_end_s: expected a finite number"),
        # the resend delay is the constant mesh.RESEND_DELAY_S
        ({"failover": {"resend_delay_s": 1.0}},
         "NetworkConfig.failover: unknown key 'resend_delay_s'"),
    ]:
        with pytest.raises(InvalidConfigError, match=re.escape(where)):
            NetworkConfig.from_json(data)


@pytest.mark.parametrize("make,where", [
    (lambda v: LinkModel(latency_s=v), "latency_s"),
    (lambda v: LinkModel(jitter_s=v), "jitter_s"),
])
@pytest.mark.parametrize("value", [math.inf, -0.5, math.nan])
def test_link_times_are_finite(make, where, value):
    # an infinite latency or jitter schedules every hop at infinity
    with pytest.raises(InvalidConfigError,
                       match=re.escape(f"{where} {value} is not in [0, inf)")):
        make(value)


def test_broker_failure_time_is_finite_and_non_negative(tmp_path):
    for t in (float("nan"), -5.0, float("inf")):
        with pytest.raises(InvalidConfigError, match=re.escape(
                f"t_s {t} is not in [0, inf)")):
            NetworkConfig(brokers=("a", "b"),
                          broker_failures=(BrokerFailure("a", t),))
    path = tmp_path / "net.json"
    for t, where in [
            (-5, "NetworkConfig.broker_failures[0]: "
                 "t_s -5.0 is not in [0, inf)"),
            (float("nan"), "NetworkConfig.broker_failures[0].t_s: "
                           "expected a finite number")]:
        path.write_text(json.dumps(
            {"brokers": ["a", "b"],
             "broker_failures": [{"broker_id": "a", "t_s": t}]}))
        with pytest.raises(InvalidConfigError, match=re.escape(where)):
            NetworkConfig.load(path)


def test_schedule_rejects_nan_and_past_times():
    net = make_net()
    fired = []
    net.schedule(2.0, lambda: fired.append(net.now))
    net.run_until(5.0)
    for t in (float("nan"), 4.0):
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"cannot schedule at {t} s")):
            net.schedule(t, lambda: fired.append(net.now))
    net.schedule(5.0, lambda: fired.append(net.now))  # now itself is fine
    net.run_until(10.0)
    assert fired == [2.0, 5.0]


def test_duplicate_and_unknown_clients():
    net = make_net()
    net.add_client("a")
    with pytest.raises(InvalidInputError):
        net.add_client("a")
    with pytest.raises(InvalidInputError):
        net.publish("ghost", "t/x", {})


# ---- basic delivery ----

def test_lossless_delivery_and_latency():
    net = make_net()
    got = collect(net)
    net.add_client("pub")
    net.publish("pub", "t/x", {"n": 1})
    net.run_until(1.0)
    assert len(got) == 1
    t, payload = got[0]
    assert payload == {"n": 1}
    assert t == pytest.approx(0.10)  # two hops at 0.05 each


def test_publish_order_is_preserved_end_to_end():
    net = make_net(default_link=LinkModel(latency_s=0.05, loss_prob=0.4),
                   max_retries=20, retry_interval_s=0.1, seed=3)
    got = collect(net)
    net.add_client("pub")
    for n in range(10):
        net.run_until(n * 0.05)
        net.publish("pub", "t/x", {"n": n})
    net.run_until(60.45)
    assert [p["n"] for _, p in got] == list(range(10))


def test_at_most_once_gives_up_on_first_loss():
    net = make_net(default_link=LinkModel(loss_prob=1.0), seed=0)
    got = collect(net)
    net.add_client("pub")
    mid = net.publish("pub", "t/x", {}, qos=QoS.AT_MOST_ONCE)
    net.run_until(30.0)
    assert got == []
    rows = [r for r in net.trace if r["msg_id"] == mid]
    assert [r["event"] for r in rows] == ["publish", "drop"]
    assert rows[1]["reason"] == "loss"


def test_at_least_once_dies_after_retry_budget():
    net = make_net(default_link=LinkModel(loss_prob=1.0),
                   max_retries=3, retry_interval_s=0.1, seed=0)
    got = collect(net)
    net.add_client("pub")
    mid = net.publish("pub", "t/x", {})
    net.run_until(30.0)
    assert got == []
    drops = [r for r in net.trace
             if r["msg_id"] == mid and r["event"] == "drop"]
    assert len(drops) == 4  # first try plus three retries
    assert drops[-1]["attempt"] == 4


def test_loss_recovery_matches_closed_form():
    net = make_net(default_link=LinkModel(latency_s=0.01, loss_prob=0.3),
                   max_retries=5, retry_interval_s=0.05, seed=11)
    got = collect(net)
    net.add_client("pub")
    n = 200
    for k in range(n):
        net.publish("pub", "t/x", {"n": k})
    net.run_until(300.0)
    # each hop succeeds with p = 1 - loss^(retries+1); two hops in series
    p = delivery_probability(0.3, 5) ** 2
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(len(got) / n - p) <= 3 * sigma + 1e-12


def test_delivery_callback_and_run_until_agree():
    net = make_net()
    got = []
    net.add_client("sub", on_message=lambda c, m, t: got.append(
        (t, c, m.msg_id, m.payload)))
    net.subscribe("sub", "t/+")
    net.add_client("pub")
    net.publish("pub", "t/x", {"n": 0})
    net.publish("pub", "t/y", {"n": 1})
    out = net.run_until(1.0)
    assert len(out) == len(got) == 2
    assert got == [(pytest.approx(0.1), "sub", "m000001", {"n": 0}),
                   (pytest.approx(0.1), "sub", "m000002", {"n": 1})]
    # the clock never runs back, and a NaN time is no time
    for t in (0.5, float("nan")):
        with pytest.raises(InvalidInputError, match="cannot run the clock"):
            net.run_until(t)
    assert net.now == 1.0
    assert len(net.run_until(2.0)) == 0  # each call returns its own
    assert len(got) == 2


def test_a_delivered_payload_is_freed_once_delivered():
    # the mesh keeps no delivered message, neither within the run_until call
    # that delivered it nor after it
    class Payload:
        pass

    net = make_net()
    net.add_client("sub", on_message=lambda c, m, t: None)
    net.subscribe("sub", "t/+")
    net.add_client("pub")
    payload = Payload()
    ref = weakref.ref(payload)
    net.publish("pub", "t/x", payload)
    del payload
    alive = []
    net.schedule(0.5, lambda: alive.append(ref() is not None))
    out = net.run_until(1.0)
    assert len(out) == 1
    assert alive == [False]
    assert ref() is None


# ---- partitions ----

def test_partition_parks_alo_until_it_heals():
    net = make_net(partitions=(Partition(t_start_s=5.0, t_end_s=10.0,
                                         nodes=frozenset({"pub"})),),
                   retry_interval_s=0.5)
    got = collect(net)
    net.add_client("pub")
    net.run_until(6.0)
    net.publish("pub", "t/x", {"n": 1})
    net.run_until(7.0)
    assert got == []  # still severed
    net.run_until(27.0)
    assert len(got) == 1
    assert got[0][0] == pytest.approx(10.10)  # first recheck after healing


def test_partition_drops_amo():
    net = make_net(partitions=(Partition(t_start_s=5.0, t_end_s=10.0,
                                         nodes=frozenset({"pub"})),))
    got = collect(net)
    net.add_client("pub")
    net.run_until(6.0)
    mid = net.publish("pub", "t/x", {}, qos=QoS.AT_MOST_ONCE)
    net.run_until(26.0)
    assert got == []
    drop = next(r for r in net.trace
                if r["msg_id"] == mid and r["event"] == "drop")
    assert drop["reason"] == "unreachable"


# ---- disconnected buffering ----

def test_disconnected_publishes_park_then_drop_oldest():
    net = make_net(buffer_cap=3)
    net.kill_broker("broker-a")  # nothing to connect to from the start
    net.add_client("pub")
    assert net.clients["pub"].current_broker is None
    ids = [net.publish("pub", "t/x", {"n": k}) for k in range(5)]
    overflow = [r for r in net.trace if r["event"] == "drop"
                and r.get("reason") == "buffer_overflow"]
    assert [r["msg_id"] for r in overflow] == ids[:2]  # oldest go first
    assert [m.msg_id for m in net.clients["pub"].buffer] == ids[2:]
    # at-least-once messages are parked, never dropped as disconnected
    assert not [r for r in net.trace if r.get("reason") == "disconnected"]


def test_disconnected_amo_is_dropped_immediately():
    net = make_net()
    net.kill_broker("broker-a")
    net.add_client("pub")
    mid = net.publish("pub", "t/x", {}, qos=QoS.AT_MOST_ONCE)
    drops = [r for r in net.trace if r["event"] == "drop"]
    assert drops == [{"t": 0.0, "msg_id": mid, "topic": "t/x", "from": "pub",
                      "to": "", "event": "drop", "reason": "disconnected"}]
    assert len(net.clients["pub"].buffer) == 0


# ---- heartbeats and failover ----

def two_broker_net(kill_at=10.0):
    cfg = NetworkConfig(
        brokers=("broker-a", "broker-b"),
        broker_failures=(BrokerFailure(broker_id="broker-a", t_s=kill_at),))
    net = MeshNetwork(cfg)
    transitions = heartbeat_and_failover(net)
    return net, transitions


def test_no_failure_means_no_transitions():
    net = make_net(brokers=("broker-a", "broker-b"))
    transitions = heartbeat_and_failover(net)
    collect(net)
    net.add_client("pub")
    net.publish("pub", "t/x", {})
    net.run_until(30.0)
    assert transitions == []
    beats = [r for r in net.trace if r["topic"].startswith("sys/heartbeat/")]
    assert len(beats) > 0


def test_failover_timeline_and_replayed_subscriptions():
    net, transitions = two_broker_net(kill_at=10.0)
    got = collect(net)
    net.add_client("pub")
    net.run_until(20.0)

    kinds = [tr["kind"] for tr in transitions]
    assert kinds.count("broker_killed") == 1
    failovers = [tr for tr in transitions if tr["kind"] == "failover"]
    assert {tr["client"] for tr in failovers} == {"sub", "pub"}
    for tr in failovers:
        # three missed beats at interval 1: detected on the 12.5 s check
        assert tr["t"] == pytest.approx(12.5)
        assert tr["from"] == "broker-a" and tr["to"] == "broker-b"

    # subscriptions were replayed: traffic flows on the new broker
    net.publish("pub", "t/x", {"n": 7})
    net.run_until(21.0)
    assert got[-1][1] == {"n": 7}
    assert "broker-a" in net.clients["pub"].failed_brokers  # no failback


def test_alo_published_during_outage_arrives_after_failover():
    net, _ = two_broker_net(kill_at=10.0)
    got = collect(net)
    net.add_client("pub")
    net.run_until(10.2)
    net.publish("pub", "t/x", {"n": 1})  # broker-a is already dead
    net.run_until(20.2)
    assert len(got) == 1
    assert 12.5 <= got[0][0] <= 13.0


@pytest.mark.parametrize("qos", [QoS.AT_MOST_ONCE, QoS.AT_LEAST_ONCE])
def test_broker_dies_with_a_message_in_flight(qos):
    net, _ = two_broker_net(kill_at=10.0)
    got = collect(net)
    net.add_client("pub")
    net.run_until(9.98)
    mid = net.publish("pub", "t/x", {"n": 1}, qos=qos)  # lands at 10.03
    net.run_until(20.0)
    drops = [r for r in net.trace if r["msg_id"] == mid and r["event"] == "drop"]
    if qos is QoS.AT_MOST_ONCE:
        assert got == []
        assert drops == [{"t": 10.03, "msg_id": mid, "topic": "t/x",
                          "from": "pub", "to": "broker-a", "event": "drop",
                          "reason": "broker_dead"}]
    else:
        # retried until the 12.5 s failover, then through broker-b
        assert drops == []
        assert got == [(pytest.approx(12.63), {"n": 1})]
        assert [r["from"] for r in net.trace if r["msg_id"] == mid
                and r["event"] == "deliver"] == ["broker-b"]


def test_stale_heartbeat_from_the_old_broker_is_ignored():
    cfg = NetworkConfig(
        brokers=("broker-a", "broker-b"),
        link_overrides={"sub": LinkModel(latency_s=0.6)},
        partitions=(Partition(t_start_s=0.5, t_end_s=2.5,
                              nodes=frozenset({"sub"})),))
    net = MeshNetwork(cfg)
    heartbeat_and_failover(net)
    net.add_client("sub")
    net.run_until(3.55)
    sub = net.clients["sub"]
    # the beats of 1 s and 2 s were severed; three misses by 3.5 s
    assert sub.current_broker == "broker-b"
    before = (sub.last_heartbeat_s, sub.missed)
    net.run_until(3.65)  # broker-a's 3 s beat lands at 3.6 s
    assert (sub.last_heartbeat_s, sub.missed) == before
    assert not [r for r in net.trace if r["event"] == "deliver"
                and r["to"] == "sub"]


def test_all_brokers_dead_strands_the_client():
    cfg = NetworkConfig(
        brokers=("broker-a",),
        broker_failures=(BrokerFailure(broker_id="broker-a", t_s=5.0),))
    net = MeshNetwork(cfg)
    transitions = heartbeat_and_failover(net)
    got = collect(net)
    net.add_client("pub")
    net.run_until(8.0)
    net.publish("pub", "t/x", {"n": 1})
    net.run_until(28.0)
    assert got == []
    failover = next(tr for tr in transitions if tr["kind"] == "failover"
                    and tr["client"] == "pub")
    assert failover["to"] is None
    assert len(net.clients["pub"].buffer) == 1  # parked, not lost


def test_kill_broker_rejects_an_unknown_broker():
    net = make_net(brokers=("broker-a", "broker-b"))
    with pytest.raises(InvalidInputError, match="unknown broker 'x'"):
        net.kill_broker("x")
    net.kill_broker("broker-a")
    net.kill_broker("broker-a")  # already dead: a no-op
    assert [tr["broker"] for tr in net.broker_transitions
            if tr["kind"] == "broker_killed"] == ["broker-a"]
    assert net.brokers["broker-b"].alive


def test_arming_twice_is_idempotent():
    net = make_net(brokers=("broker-a", "broker-b"))
    first = heartbeat_and_failover(net)
    second = heartbeat_and_failover(net)
    assert first is second
    net.add_client("sub")
    net.run_until(10.5)
    # one heartbeat publish row per broker per interval, not two
    for broker in net.config.brokers:
        beats = [r["t"] for r in net.trace if r["event"] == "publish"
                 and r["topic"] == f"sys/heartbeat/{broker}"]
        assert beats == [float(k) for k in range(1, 11)], broker


def test_trace_is_deterministic():
    def run():
        net = make_net(
            brokers=("broker-a", "broker-b"),
            default_link=LinkModel(latency_s=0.05, jitter_s=0.02,
                                   loss_prob=0.2),
            broker_failures=(BrokerFailure(broker_id="broker-a", t_s=5.0),),
            seed=21)
        heartbeat_and_failover(net)
        collect(net)
        net.add_client("pub")
        for k in range(20):
            net.run_until(0.3 * k)
            net.publish("pub", "t/x", {"n": k})
        net.run_until(35.7)
        return list(net.trace)

    a = run()
    b = run()
    assert a == b
    assert len(a) > 40


# ---- cached topic routes and block draws ----

def fresh_route(broker, topic):
    """What a fan-out on topic reaches: every matching slot, in slot order."""
    return tuple(cid for cid, patterns in broker.subscriptions.items()
                 if any(topic_matches("/".join(p), topic) for p in patterns))


def test_cached_routes_match_subscriptions_after_failovers():
    # sub-b starts on broker-b (the partition cuts it off broker-a), so
    # broker-b routes topics before the others fail over and subscribe there
    net = make_net(
        brokers=("broker-a", "broker-b"),
        default_link=LinkModel(latency_s=0.05, jitter_s=0.02, loss_prob=0.1),
        partitions=(Partition(t_start_s=0.0, t_end_s=6.0,
                              nodes=frozenset({"sub-b", "broker-b"})),),
        broker_failures=(BrokerFailure(broker_id="broker-a", t_s=10.0),),
        seed=5)
    transitions = heartbeat_and_failover(net)
    subs = {"cn": ["hec/pn/+/frame"],
            "dash-1": ["hec/pn/+/status", "hec/pn/pn-1/+"],
            "dash-2": ["hec/+/+/status"],
            "sub-b": ["hec/pn/+/status", "hec/cn/cmd/pn-2"]}
    for node in ("pn-1", "pn-2"):
        subs[node] = [f"hec/cn/cmd/{node}"]
    for cid, patterns in subs.items():
        net.add_client(cid)
        for pattern in patterns:
            net.subscribe(cid, pattern)
    assert net.clients["sub-b"].current_broker == "broker-b"
    routed_on_a = {}
    for k in range(40):
        net.run_until(0.5 * k)
        if k == 19:  # just before the kill
            routed_on_a = dict(net.brokers["broker-a"].routes)
        for node in ("pn-1", "pn-2"):
            net.publish(node, f"hec/pn/{node}/status", k, qos=QoS.AT_MOST_ONCE)
            net.publish(node, f"hec/pn/{node}/frame", k)
        net.publish("sub-b", f"hec/cn/cmd/pn-{1 + k % 2}", k)
    net.run_until(29.5)

    assert any(tr["kind"] == "failover" for tr in transitions)
    assert len(routed_on_a) == 4
    assert net.brokers["broker-a"].routes == {}
    assert len(net.brokers["broker-b"].routes) >= 5
    for broker in net.brokers.values():
        for topic, route in broker.routes.items():
            assert route == fresh_route(broker, topic), (broker.broker_id, topic)


def test_subscribe_after_a_topic_was_routed_receives_the_next_message():
    net = make_net()
    first = collect(net, "first", "t/+")
    net.add_client("pub")
    net.publish("pub", "t/x", 1)
    net.run_until(1.0)
    assert "t/x" in net.brokers["broker-a"].routes
    late = collect(net, "late", "t/x")
    net.publish("pub", "t/x", 2)
    net.run_until(2.0)
    assert [p for _, p in first] == [1, 2]
    assert [p for _, p in late] == [2]


def test_block_draws_equal_scalar_draws():
    # 2,000 interleaved transmissions over three links cross several
    # 512-draw block edges; a lost one draws no jitter
    links = (LinkModel(latency_s=0.05, loss_prob=0.3),
             LinkModel(latency_s=0.05, jitter_s=0.02),
             LinkModel(latency_s=0.05, jitter_s=0.02, loss_prob=0.3))
    net = make_net(seed=17)
    ref = np.random.default_rng(17)
    loss_tests = jittered = lost = 0
    for kind in np.random.default_rng(0).integers(0, 3, 2000):
        link = links[kind]
        expected = link.latency_s
        if link.loss_prob > 0:
            loss_tests += 1
            if ref.random() < link.loss_prob:
                expected = None
                lost += 1
        if expected is not None and link.jitter_s > 0:
            jittered += 1
            expected = link.latency_s + ref.uniform(0.0, link.jitter_s)
        assert net._transmit(link) == expected
    assert loss_tests > 512 and jittered > 512 and lost > 100
    # a certain loss draws its loss test only
    assert net._transmit(LinkModel(jitter_s=0.02, loss_prob=1.0)) is None
    ref.random()
    assert net._transmit(links[1]) == 0.05 + ref.uniform(0.0, 0.02)


def test_trace_jsonl_round_trips(tmp_path):
    net = make_net()
    collect(net)
    net.add_client("pub")
    net.publish("pub", "t/x", {"n": 1})
    net.run_until(1.0)
    path = tmp_path / "trace.jsonl"
    net.write_trace_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == list(net.trace)
    assert {r["event"] for r in rows} >= {"publish", "deliver"}


def test_trace_view_reads_like_a_list_of_dicts():
    net = make_net(default_link=LinkModel(loss_prob=0.5), max_retries=1,
                   seed=2)
    collect(net)
    net.add_client("pub")
    view = net.trace
    net.publish("pub", "t/x", 1)
    net.run_until(5.0)
    rows = list(view)  # rows traced after the view was taken show in it
    assert len(view) == len(rows) == len(net.trace) > 2
    assert list(rows[0]) == ["t", "msg_id", "topic", "from", "to", "event"]
    drop = next(r for r in view if r["event"] == "drop")
    assert list(drop) == ["t", "msg_id", "topic", "from", "to", "event",
                          "reason", "attempt"]
    with pytest.raises(AttributeError):
        net.trace = []


def test_trace_and_deliveries_stay_out_of_the_cyclic_gc():
    # the rows of ten subscribers hold no more containers the collector
    # tracks than those of one, and deliveries are only counted: what stays
    # is the clients themselves
    def growth(subscribers):
        gc.collect()
        before = len(gc.get_objects())
        net = make_net()
        for k in range(subscribers):
            net.add_client(f"sub-{k}")
            net.subscribe(f"sub-{k}", "t/+")
        net.add_client("pub")
        for k in range(500):
            net.schedule(0.01 * k, lambda k=k: net.publish("pub", "t/x", k))
        out = net.run_until(10.0)
        assert len(out) == 500 * subscribers
        gc.collect()
        return len(gc.get_objects()) - before

    growth(1)  # lazy set-up outside the measured runs
    assert abs(growth(10) - growth(1)) <= 100


def test_trace_rows_retain_little_memory():
    # eight fields a row in one flat list, and messages without an instance
    # dict, retain about 159 B a row here
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        net = make_net(default_link=LinkModel(latency_s=0.01, loss_prob=0.3),
                       seed=3)
        for sub in ("sub-1", "sub-2"):
            net.add_client(sub)
            net.subscribe(sub, "t/+")
        net.add_client("pub")
        for k in range(3000):
            net.schedule(0.01 * k, lambda k=k: net.publish("pub", "t/x", k))
        net.run_until(100.0)
        gc.collect()
        per_row = (tracemalloc.get_traced_memory()[0] - base) / len(net.trace)
    finally:
        tracemalloc.stop()
    assert len(net.trace) > 15_000
    assert per_row < 170, per_row
    msg = Message("m000001", "t/x", None, QoS.AT_MOST_ONCE, "pub")
    assert not hasattr(msg, "__dict__")


# ---- the trace writer and the partition rule ----

def assert_written_like_json(net, tmp_path):
    """write_trace_jsonl writes the bytes json.dumps(row, sort_keys=True)
    gives for every row, one per line."""
    mine, ref = tmp_path / "mine.jsonl", tmp_path / "ref.jsonl"
    net.write_trace_jsonl(mine)
    write_jsonl(net.trace, ref)
    assert mine.read_bytes() == ref.read_bytes()
    return mine.read_text(encoding="ascii")


def row_shape(row):
    return row["event"], row.get("reason") is not None, "attempt" in row, \
        row["msg_id"] == ""


def storm(loss, jitter, cut, kill_at, buffer_cap, seed):
    """A lossy two-broker run where pub loses both brokers to a partition
    while broker-a dies, so every kind of trace row can appear."""
    start, length = cut
    net = make_net(
        brokers=("broker-a", "broker-b"),
        default_link=LinkModel(latency_s=0.05, jitter_s=jitter, loss_prob=loss),
        partitions=(Partition(start, start + length, frozenset({"pub"})),),
        broker_failures=(BrokerFailure("broker-a", kill_at),),
        max_retries=2, retry_interval_s=0.25, buffer_cap=buffer_cap, seed=seed)
    heartbeat_and_failover(net)
    collect(net)
    net.add_client("pub")
    for k in range(60):
        net.run_until(0.25 * k)
        net.publish("pub", "t/x", k, qos=(QoS.AT_MOST_ONCE, QoS.AT_LEAST_ONCE)[k % 2])
    net.run_until(30.0)
    return net


def test_trace_writer_covers_every_row_shape(tmp_path):
    net = storm(loss=0.2, jitter=0.02, cut=(3.0, 8.0), kill_at=10.0,
                buffer_cap=2, seed=4)
    assert_written_like_json(net, tmp_path)
    shapes = {row_shape(r) for r in net.trace}
    assert {("drop", True, False, False),   # buffer_overflow, unreachable, ...
            ("drop", True, True, False),    # loss, with its attempt
            ("retry", False, True, False),
            ("failover", False, False, True),
            ("publish", False, False, False),
            ("deliver", False, False, False)} <= shapes
    reasons = {r.get("reason") for r in net.trace}
    assert {"loss", "buffer_overflow", "disconnected", "unreachable"} <= reasons


@settings(max_examples=25, deadline=None)
@given(loss=st.floats(0.0, 0.4), jitter=st.sampled_from([0.0, 0.013, 0.02]),
       cut=st.tuples(st.floats(0.0, 10.0), st.floats(0.5, 8.0)),
       kill_at=st.floats(0.0, 20.0), buffer_cap=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_trace_writer_equals_json_dumps(tmp_path_factory, loss, jitter, cut,
                                        kill_at, buffer_cap, seed):
    net = storm(loss, jitter, cut, kill_at, buffer_cap, seed)
    assert_written_like_json(net, tmp_path_factory.mktemp("trace"))


def test_trace_writer_prints_an_int_clock_as_an_int(tmp_path):
    net = make_net()
    collect(net)
    net.add_client("pub")
    net.run_until(5)
    net.publish("pub", "t/x", 1)
    net.run_until(6)
    assert type(list(net.trace)[0]["t"]) is int
    text = assert_written_like_json(net, tmp_path)
    assert '"t": 5, ' in text.splitlines()[0]


def test_trace_writer_prints_np_float64_as_a_float(tmp_path):
    net = make_net()
    collect(net)
    net.add_client("pub")
    net.schedule(np.float64(1.25), lambda: net.publish("pub", "t/x", 1))
    net.run_until(2.0)
    assert type(list(net.trace)[0]["t"]) is np.float64
    text = assert_written_like_json(net, tmp_path)
    assert '"t": 1.25, ' in text.splitlines()[0]
    assert "np.float64" not in text


@pytest.mark.parametrize("clock,text", [
    (0.1 + 0.2, "0.3"),
    (3e-05, "3e-05"),  # below 1e-4 s repr writes an exponent
    # from 1e6 s 9 decimals can be more than 15 significant digits
    (1_234_567.123456789, "1234567.123456789"),
])
def test_a_row_keeps_the_raw_clock_and_rounds_it_when_read(tmp_path, clock,
                                                           text):
    net = make_net(default_link=LinkModel(jitter_s=0.02), seed=5)
    collect(net)
    net.add_client("pub")
    net.schedule(clock, lambda: net.publish("pub", "t/x", 1))
    net.run_until(clock + 1.0)
    assert net._rows[0] == clock  # the first field of the first row
    assert list(net.trace)[0]["t"] == float(text)
    lines = assert_written_like_json(net, tmp_path).splitlines()
    assert len(lines) == 2 and f'"t": {text}, ' in lines[0]


@settings(max_examples=400, deadline=None)
@given(st.floats(0.0, 2e6) | st.floats(0.0, 1e-4) | st.floats(1e6, 2e6)
       | st.floats(2e6, 1e9)
       | st.integers(0, 2 * 10**15).map(lambda k: k / 1e9 + 5e-10)
       | st.floats(1e6 - 1.0, 1e6, exclude_max=True)
       | st.integers(0, 2 * 10**6)
       | st.floats(0.0, 2e6).map(np.float64))
@example(0.1 + 0.2)
@example(math.nextafter(1e6, 0.0))
@example(math.nextafter(1e-4, 0.0))
@example(8496165.71936638)  # "%.9f" gives 8496165.719366379
@example(1e-4)
@example(1e6)
@example(0.0)
@example(5)
@example(np.float64(0.1 + 0.2))
def test_trace_line_writes_the_clock_like_json(t):
    row = (t, "m000001", "t/x", "pub", "broker-a", "deliver", None, None)
    assert _trace_line(*row) == json.dumps(_row_dict(*row), sort_keys=True) + "\n"


def test_heartbeat_rows_of_one_broker_share_one_topic_string():
    net = make_net(brokers=("broker-a", "broker-b"))
    heartbeat_and_failover(net)
    net.add_client("sub")
    net.run_until(20.0)
    for broker in net.brokers.values():
        # the topic is the third of each row's eight flat fields
        topics = [t for t in net._rows[2::8] if t == broker.heartbeat_topic]
        assert len(topics) >= 20
        assert all(t is broker.heartbeat_topic for t in topics)


def test_trace_writer_escapes_ids_like_json(tmp_path):
    net = make_net()
    got = collect(net, 'sub"\\', 't/+')
    net.add_client("pub\u00e9")
    net.publish("pub\u00e9", 't/"\\\u00e9', 1)
    net.run_until(1.0)
    assert len(got) == 1
    text = assert_written_like_json(net, tmp_path)
    assert [json.loads(line) for line in text.splitlines()] == list(net.trace)
    assert '"from": "pub\\u00e9"' in text


def test_the_clock_never_runs_to_infinity():
    net = make_net()
    with pytest.raises(InvalidInputError,
                       match=re.escape("cannot run the clock from 0.0 s to inf s")):
        net.run_until(math.inf)


NODES = st.sampled_from(["a", "b", "c", "d"])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(1, 4),
                          st.frozensets(NODES)), max_size=3),
       NODES, NODES, st.data())
def test_severed_matches_the_partition_rule(windows, a, b, data):
    parts = [(float(s), float(s + n), nodes) for s, n, nodes in windows]
    net = make_net(partitions=tuple(Partition(*p) for p in parts))
    times = st.floats(0.0, 13.0)
    if parts:  # the edges themselves: closed at the start, open at the end
        times |= st.sampled_from([t for s, e, _ in parts for t in (s, e)])
    net.now = data.draw(times)
    assert net._severed(a, b) == partition_severs(parts, a, b, net.now)
    assert net._severed(a, b) == net._severed(b, a)


@settings(max_examples=25, deadline=None)
@given(loss=st.floats(0.0, 0.4), jitter=st.sampled_from([0.0, 0.013, 0.02]),
       seed=st.integers(0, 2**16))
def test_a_channel_lives_only_while_it_holds_a_transfer(loss, jitter, seed):
    # each (direction, publisher, topic, client) hop keeps its transfers in
    # publish order in a channel that is dropped once drained, and a later
    # transfer starts a fresh one: order holds across that, and the table
    # is empty once every transfer has resolved
    net = make_net(default_link=LinkModel(latency_s=0.01, jitter_s=jitter,
                                          loss_prob=loss),
                   max_retries=3, retry_interval_s=0.05, seed=seed)
    got = {"s1": [], "s2": []}
    for sub in got:
        net.add_client(sub, on_message=lambda cid, msg, t: got[cid].append(
            (msg.publisher, msg.topic, msg.payload)))
        net.subscribe(sub, "t/+")
    for pub in ("p1", "p2"):
        net.add_client(pub)
    for k in range(40):
        net.run_until(0.01 * k)
        for pub in ("p1", "p2"):
            net.publish(pub, "t/alo", k)
            net.publish(pub, "t/amo", k, qos=QoS.AT_MOST_ONCE)
    assert net._channels
    net.run_until(60.0)
    assert not net._channels
    for rows in got.values():
        for key in {(p, t) for p, t, _ in rows}:
            ks = [k for p, t, k in rows if (p, t) == key]
            assert ks == sorted(set(ks)), (key, ks)
    if loss == 0.0:
        assert all(len(rows) == 160 for rows in got.values())
