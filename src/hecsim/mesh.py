"""Simulated publish/subscribe mesh with brokers, loss, and failover.

A single-threaded discrete-event engine owns the simulated clock. Clients
publish to slash-delimited topics through their current broker; the broker
fans out to every subscriber whose pattern matches ('+' matches one level).
Links have latency, optional jitter, a loss probability, and partition
windows. AtLeastOnce transfers retry lost transmissions up to max_retries;
AtMostOnce transfers get a single shot.

Liveness is heartbeat-based: every alive broker beats once per interval, and
a client that misses miss_threshold consecutive beats abandons the broker,
reconnects to the first usable one in NetworkConfig.brokers order, replays
its subscriptions, and re-sends what it buffered while disconnected. There
is no failback.

Ordering guarantee: for the messages that survive, delivery order per
(publisher, topic) matches publish order at every subscriber.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .codec import JsonConfig
from .errors import InvalidConfigError, InvalidInputError

log = logging.getLogger(__name__)


class QoS(Enum):
    AT_MOST_ONCE = "at_most_once"
    AT_LEAST_ONCE = "at_least_once"


@dataclass(frozen=True)
class Message:
    """Envelope. The mesh never reads, copies or traces the payload, so
    every subscriber receives the publisher's own object: publish
    immutable ones."""

    msg_id: str
    topic: str
    payload: object
    qos: QoS
    publisher: str


@dataclass(frozen=True)
class LinkModel:
    """Per-link behavior; latency gets a uniform jitter in [0, jitter_s]."""

    latency_s: float = 0.05
    jitter_s: float = 0.0
    loss_prob: float = 0.0

    def __post_init__(self):
        for name in ("latency_s", "jitter_s"):
            if not 0 <= (value := getattr(self, name)) < math.inf:
                raise InvalidConfigError(f"{name} {value} is not in [0, inf)")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise InvalidConfigError("loss_prob must be in [0, 1]")


@dataclass(frozen=True)
class Partition:
    """Nodes listed here cannot exchange traffic with the rest while active."""

    t_start_s: float
    t_end_s: float
    nodes: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        if not self.t_start_s < self.t_end_s:
            raise InvalidConfigError("partition must end after it starts")


@dataclass(frozen=True)
class FailoverConfig:
    heartbeat_interval_s: float = 1.0
    miss_threshold: int = 3
    # parked publishes are re-sent this long after a reconnect, giving every
    # client time to replay subscriptions on the new broker first
    resend_delay_s: float = 1.0

    def __post_init__(self):
        if not 0 < self.heartbeat_interval_s < math.inf:
            raise InvalidConfigError(
                "heartbeat interval must be positive and finite")
        if self.miss_threshold < 1:
            raise InvalidConfigError("miss threshold must be at least 1")
        if not 0 <= self.resend_delay_s < math.inf:
            raise InvalidConfigError(
                f"resend_delay_s {self.resend_delay_s} is not in [0, inf)")


@dataclass(frozen=True)
class BrokerFailure:
    broker_id: str
    t_s: float

    def __post_init__(self):
        if not 0 <= self.t_s < math.inf:
            raise InvalidConfigError(f"broker failure time {self.t_s} is not in [0, inf)")


@dataclass(frozen=True)
class NetworkConfig(JsonConfig):
    brokers: tuple[str, ...] = ("broker-a",)
    default_link: LinkModel = LinkModel()
    link_overrides: dict[str, LinkModel] = field(default_factory=dict)  # by client id
    partitions: tuple[Partition, ...] = ()
    failover: FailoverConfig = FailoverConfig()
    broker_failures: tuple[BrokerFailure, ...] = ()
    max_retries: int = 10
    retry_interval_s: float = 0.5
    buffer_cap: int = 64
    seed: int = 0

    def __post_init__(self):
        if not self.brokers:
            raise InvalidConfigError("need at least one broker")
        if self.max_retries < 0 or self.buffer_cap < 1:
            raise InvalidConfigError("bad retry or buffer setting")
        if not 0 < self.retry_interval_s < math.inf:
            raise InvalidConfigError("retry interval must be positive and finite")
        unknown = {f.broker_id for f in self.broker_failures} - set(self.brokers)
        if unknown:
            raise InvalidConfigError(f"unknown brokers {sorted(unknown)}")


def check_segment(name: str, value: str) -> None:
    """Reject a value that cannot stand as one level of a topic."""
    if not value or "/" in value or "+" in value:
        raise InvalidConfigError(
            f"{name} must be one plain topic segment, got {value!r}")


def topic_matches(pattern: str, topic: str) -> bool:
    """Segment-wise match where '+' stands in for exactly one level."""
    return _levels_match(pattern.split("/"), topic.split("/"))


def _levels_match(p_parts: Sequence[str], t_parts: Sequence[str]) -> bool:
    return len(p_parts) == len(t_parts) and all(
        p == "+" or p == t for p, t in zip(p_parts, t_parts))


class BrokerState:
    """Broker bookkeeping: subscription table, topic routes and liveness."""

    def __init__(self, broker_id: str):
        self.broker_id = broker_id
        self.alive = True
        self.subscriptions: dict[str, list[tuple[str, ...]]] = {}  # split patterns
        # topic -> matching client ids in slot order; cleared on any change
        self.routes: dict[str, tuple[str, ...]] = {}


class _Client:
    def __init__(self, client_id: str, on_message):
        self.client_id = client_id
        self.on_message = on_message
        self.current_broker: str | None = None  # None while disconnected
        self.failed_brokers: set[str] = set()
        self.last_heartbeat_s = -np.inf
        self.missed = 0
        self.buffer: deque[Message] = deque()
        self.subscriptions: list[str] = []
        self.drain_scheduled = False


_PENDING, _ARRIVED, _DEAD = range(3)


class _Transfer:
    """One message moving over one hop, with retry state."""

    __slots__ = ("msg", "direction", "client_id", "broker_id", "attempts",
                 "state", "channel_key")

    def __init__(self, msg: Message, direction: str, client_id: str,
                 broker_id: str | None, channel_key):
        self.msg = msg
        self.direction = direction  # "up" (client->broker) or "down"
        self.client_id = client_id
        self.broker_id = broker_id  # fixed for down, resolved per attempt for up
        self.attempts = 0
        self.state = _PENDING
        self.channel_key = channel_key


class MeshNetwork:
    """Discrete-event pub/sub fabric; all randomness comes from config.seed."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        self.now = 0.0
        self._rng = np.random.default_rng(config.seed)
        self._draws: list[float] = []  # uniforms drawn ahead, next one last
        self.brokers = {b: BrokerState(b) for b in config.brokers}
        self.clients: dict[str, _Client] = {}
        self.trace: list[dict] = []
        self.broker_transitions: list[dict] = []
        self._heap: list = []
        self._seq = itertools.count()
        self._msg_counter = itertools.count(1)
        self._channels: defaultdict[tuple, deque[_Transfer]] = defaultdict(deque)
        self._delivered: list[tuple[float, str, Message]] = []
        self._failover_armed = False
        for failure in config.broker_failures:
            self.schedule(failure.t_s, lambda b=failure.broker_id: self.kill_broker(b))

    # ---- scheduling core ----

    def schedule(self, t_s: float, fn: Callable[[], None]) -> None:
        """Run fn at simulated time t_s, which must not be before now."""
        if not t_s >= self.now:
            raise InvalidInputError(f"cannot schedule at {t_s} s before {self.now} s")
        heapq.heappush(self._heap, (t_s, next(self._seq), fn))

    def schedule_in(self, dt_s: float, fn: Callable[[], None]) -> None:
        self.schedule(self.now + dt_s, fn)

    def run_until(self, t_s: float) -> list[tuple[float, str, Message]]:
        """Process every event due by t_s; returns (t, client, msg) deliveries."""
        if not self.now <= t_s < math.inf:  # trace times stay JSON numbers
            raise InvalidInputError(
                f"cannot run the clock from {self.now} s to {t_s} s")
        self._delivered = []
        while self._heap and self._heap[0][0] <= t_s:
            t, _, fn = heapq.heappop(self._heap)
            self.now = t
            fn()
        self.now = t_s
        return self._delivered

    # ---- wiring ----

    def add_client(self, client_id: str, on_message=None) -> None:
        if client_id in self.clients or client_id in self.brokers:
            raise InvalidInputError(f"duplicate node id {client_id!r}")
        client = _Client(client_id, on_message)
        self.clients[client_id] = client
        self._try_connect(client)

    def subscribe(self, client_id: str, pattern: str) -> None:
        """Register interest; replayed automatically after a failover."""
        client = self._client(client_id)
        if pattern not in client.subscriptions:
            client.subscriptions.append(pattern)
        if client.current_broker is not None:
            self._register(self.brokers[client.current_broker], client_id,
                           [pattern])

    def publish(self, client_id: str, topic: str, payload: object,
                qos: QoS = QoS.AT_LEAST_ONCE) -> str:
        """Publish one message; returns its id. Buffered while disconnected."""
        client = self._client(client_id)
        msg = Message(msg_id=f"m{next(self._msg_counter):06d}", topic=topic,
                      payload=payload, qos=qos, publisher=client_id)
        self._trace(msg, "publish", client_id, client.current_broker)
        if client.buffer and qos is QoS.AT_LEAST_ONCE:
            # queue behind undrained messages to preserve publish order;
            # _attempt decides what a disconnected client does with the rest
            self._park(client, msg)
        else:
            self._start(msg, "up", client_id)
        return msg.msg_id

    def kill_broker(self, broker_id: str) -> None:
        broker = self.brokers.get(broker_id)
        if broker is None:
            raise InvalidInputError(f"unknown broker {broker_id!r}")
        if not broker.alive:
            return
        broker.alive = False
        broker.subscriptions.clear()
        broker.routes.clear()
        self.broker_transitions.append(
            {"t": self.now, "kind": "broker_killed", "broker": broker_id})

    def write_trace_jsonl(self, path: str | Path) -> None:
        """One line per trace row, as json.dumps(row, sort_keys=True)."""
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(map(_trace_line, self.trace))

    # ---- internals ----

    def _client(self, client_id: str) -> _Client:
        try:
            return self.clients[client_id]
        except KeyError:
            raise InvalidInputError(f"unknown client {client_id!r}")

    def _trace(self, msg: Message, event: str, frm: str, to: str | None,
               reason: str | None = None, attempt: int | None = None) -> None:
        row = {"t": round(self.now, 9), "msg_id": msg.msg_id, "topic": msg.topic,
               "from": frm, "to": to or "", "event": event}
        if reason is not None:
            row["reason"] = reason
        if attempt is not None:
            row["attempt"] = attempt
        self.trace.append(row)

    def _link_for(self, client_id: str) -> LinkModel:
        return self.config.link_overrides.get(client_id, self.config.default_link)

    def _severed(self, a: str, b: str) -> bool:
        """True while an active partition holds exactly one of a and b."""
        now = self.now
        for p in self.config.partitions:
            if p.t_start_s <= now < p.t_end_s and (a in p.nodes) != (b in p.nodes):
                return True
        return False

    def _draw(self) -> float:
        """Next uniform in [0, 1), in the order scalar rng.random() gives."""
        if not self._draws:
            self._draws = self._rng.random(512).tolist()[::-1]
        return self._draws.pop()

    def _latency(self, link: LinkModel) -> float:
        # rng.uniform(0, j) is 0.0 + j * u, so this is bit-identical to it
        if link.jitter_s > 0:
            return link.latency_s + link.jitter_s * self._draw()
        return link.latency_s

    def _lost(self, link: LinkModel) -> bool:
        return link.loss_prob > 0 and self._draw() < link.loss_prob

    def _park(self, client: _Client, msg: Message) -> None:
        client.buffer.append(msg)
        if len(client.buffer) > self.config.buffer_cap:
            dropped = client.buffer.popleft()
            log.warning("client %s buffer full, dropping oldest message %s",
                        client.client_id, dropped.msg_id)
            self._trace(dropped, "drop", client.client_id, "",
                        reason="buffer_overflow")

    def _drain_buffer(self, client: _Client) -> None:
        client.drain_scheduled = False
        while client.current_broker is not None and client.buffer:
            self._start(client.buffer.popleft(), "up", client.client_id)

    # ---- one hop: client to broker ("up") or broker to client ("down") ----

    def _start(self, msg: Message, direction: str, client_id: str,
               broker_id: str | None = None) -> None:
        key = (direction, msg.publisher, msg.topic, client_id)
        transfer = _Transfer(msg, direction, client_id, broker_id, key)
        self._channels[key].append(transfer)
        self._attempt(transfer)

    def _attempt(self, transfer: _Transfer) -> None:
        client = self.clients[transfer.client_id]
        msg = transfer.msg
        if transfer.direction == "up":
            if client.current_broker is None:
                # only at-least-once messages survive a disconnect: they fold
                # back into the buffer, and the transfer slot dies so the
                # channel does not deadlock; the drain re-creates it. The
                # fire-and-forget class is stale by the time a reconnect lands
                if msg.qos is QoS.AT_LEAST_ONCE:
                    self._park(client, msg)
                    self._kill(transfer)
                else:
                    self._kill(transfer, "disconnected", client.client_id, "")
                return
            broker_id = client.current_broker
            ends = (client.client_id, broker_id)
        else:
            broker_id = transfer.broker_id
            ends = (broker_id, client.client_id)
            if client.current_broker != broker_id or \
                    not self.brokers[broker_id].alive:
                # the session this delivery belonged to is gone
                self._kill(transfer, "session_gone", *ends)
                return
        if not self.brokers[broker_id].alive or \
                self._severed(client.client_id, broker_id):
            if msg.qos is QoS.AT_LEAST_ONCE:
                # unreachable, not lost: retry without spending a credit
                self._retry_later(transfer)
            else:
                self._kill(transfer, "unreachable", *ends)
            return
        link = self._link_for(client.client_id)
        if self._lost(link):
            transfer.attempts += 1
            self._trace(msg, "drop", *ends, reason="loss",
                        attempt=transfer.attempts)
            if msg.qos is QoS.AT_LEAST_ONCE and \
                    transfer.attempts <= self.config.max_retries:
                self._trace(msg, "retry", *ends, attempt=transfer.attempts)
                self._retry_later(transfer)
            else:
                self._kill(transfer)
            return
        self.schedule_in(self._latency(link),
                         lambda: self._arrive(transfer, broker_id))

    def _arrive(self, transfer: _Transfer, broker_id: str) -> None:
        if transfer.direction == "up" and not self.brokers[broker_id].alive:
            # the broker died while the message was in flight
            if transfer.msg.qos is QoS.AT_LEAST_ONCE:
                self._retry_later(transfer)
            else:
                self._kill(transfer, "broker_dead", transfer.client_id,
                           broker_id)
            return
        transfer.state = _ARRIVED
        transfer.broker_id = broker_id
        self._pump(transfer.channel_key)

    def _retry_later(self, transfer: _Transfer) -> None:
        self.schedule_in(self.config.retry_interval_s,
                         lambda: self._attempt(transfer))

    def _kill(self, transfer: _Transfer, reason: str | None = None,
              frm: str = "", to: str = "") -> None:
        """Retire a transfer, tracing a drop when a reason is given."""
        transfer.state = _DEAD
        if reason is not None:
            self._trace(transfer.msg, "drop", frm, to, reason=reason)
        self._pump(transfer.channel_key)

    def _fanout(self, msg: Message, broker_id: str) -> None:
        broker = self.brokers[broker_id]
        route = broker.routes.get(msg.topic)
        if route is None:
            levels = msg.topic.split("/")
            route = broker.routes[msg.topic] = tuple(
                client_id for client_id, patterns in broker.subscriptions.items()
                if any(_levels_match(p, levels) for p in patterns))
        for client_id in route:
            self._start(msg, "down", client_id, broker_id)

    # ---- ordered handoff ----

    def _pump(self, key: tuple) -> None:
        """Release the channel head when it has resolved, preserving order."""
        channel = self._channels.get(key)
        while channel:
            head = channel[0]
            if head.state == _DEAD:
                channel.popleft()
                continue
            if head.state != _ARRIVED:
                return
            channel.popleft()
            if head.direction == "up":
                self._fanout(head.msg, head.broker_id)
            else:
                self._deliver(head)

    def _deliver(self, transfer: _Transfer) -> None:
        client = self.clients[transfer.client_id]
        msg = transfer.msg
        self._trace(msg, "deliver", transfer.broker_id, client.client_id)
        self._delivered.append((self.now, client.client_id, msg))
        if client.on_message is not None:
            client.on_message(client.client_id, msg, self.now)

    # ---- heartbeats and failover ----

    def _heartbeat_tick(self) -> None:
        interval = self.config.failover.heartbeat_interval_s
        for broker in self.brokers.values():
            if not broker.alive:
                continue
            msg = Message(msg_id=f"m{next(self._msg_counter):06d}",
                          topic=f"sys/heartbeat/{broker.broker_id}",
                          payload=None, qos=QoS.AT_MOST_ONCE,
                          publisher=broker.broker_id)
            self._trace(msg, "publish", broker.broker_id, "")
            for client in self.clients.values():
                if client.current_broker != broker.broker_id:
                    continue
                if self._severed(client.client_id, broker.broker_id):
                    continue
                link = self._link_for(client.client_id)
                if self._lost(link):
                    continue
                self.schedule_in(
                    self._latency(link),
                    lambda c=client, m=msg: self._receive_heartbeat(c, m))
        self.schedule_in(interval, self._heartbeat_tick)

    def _receive_heartbeat(self, client: _Client, msg: Message) -> None:
        if client.current_broker != msg.publisher:
            return
        client.last_heartbeat_s = self.now
        client.missed = 0
        self._trace(msg, "deliver", msg.publisher, client.client_id)

    def _monitor_tick(self) -> None:
        interval = self.config.failover.heartbeat_interval_s
        for client in self.clients.values():
            if client.current_broker is not None:
                if self.now - client.last_heartbeat_s > interval:
                    client.missed += 1
                if client.missed >= self.config.failover.miss_threshold:
                    self._failover(client)
            else:
                # a client the failover logic disconnected keeps probing
                self._try_connect(client, record_reconnect=True)
        self.schedule_in(interval, self._monitor_tick)

    def _failover(self, client: _Client) -> None:
        old = client.current_broker
        client.failed_brokers.add(old)
        client.current_broker = None
        client.missed = 0
        self._try_connect(client)
        self._trace(Message("", "", None, QoS.AT_MOST_ONCE, client.client_id),
                    "failover", old, client.current_broker)
        self.broker_transitions.append(
            {"t": self.now, "kind": "failover", "client": client.client_id,
             "from": old, "to": client.current_broker})

    def _try_connect(self, client: _Client, record_reconnect: bool = False) -> None:
        """Connect to the first reachable candidate not already written off."""
        for broker_id in self.config.brokers:
            broker = self.brokers[broker_id]
            if not broker.alive:
                continue
            if broker_id in client.failed_brokers:
                continue  # no failback
            if self._severed(client.client_id, broker_id):
                continue
            client.current_broker = broker_id
            client.last_heartbeat_s = self.now
            client.missed = 0
            self._register(broker, client.client_id, client.subscriptions)
            if record_reconnect:
                self.broker_transitions.append(
                    {"t": self.now, "kind": "reconnect",
                     "client": client.client_id, "to": broker_id})
            if client.buffer and not client.drain_scheduled:
                client.drain_scheduled = True
                self.schedule_in(self.config.failover.resend_delay_s,
                                 lambda c=client: self._drain_buffer(c))
            return

    @staticmethod
    def _register(broker: BrokerState, client_id: str,
                  patterns: list[str]) -> None:
        # a client gets a slot only with its first pattern: slot order is
        # fan-out order
        for pattern in patterns:
            mine = broker.subscriptions.setdefault(client_id, [])
            if (levels := tuple(pattern.split("/"))) not in mine:
                mine.append(levels)
                broker.routes.clear()


def _trace_line(row: dict) -> str:
    """A _trace row as json.dumps(row, sort_keys=True) writes it, plus a
    newline. The key set is closed, so the sorted order is written out."""
    t = row["t"]  # an int after run_until(5); np.float64 prints as a float
    t = int.__repr__(t) if isinstance(t, int) else float.__repr__(t)
    attempt, reason = row.get("attempt"), row.get("reason")
    attempt = "" if attempt is None else f'"attempt": {int.__repr__(attempt)}, '
    reason = "" if reason is None else f'"reason": {_quote(reason)}, '
    return (f'{{{attempt}"event": {_quote(row["event"])}, '
            f'"from": {_quote(row["from"])}, "msg_id": {_quote(row["msg_id"])}, '
            f'{reason}"t": {t}, "to": {_quote(row["to"])}, '
            f'"topic": {_quote(row["topic"])}}}\n')


def heartbeat_and_failover(network: MeshNetwork) -> list[dict]:
    """Arm heartbeat emission and client-side liveness monitoring.

    The returned list is live: transitions (broker_killed, failover,
    reconnect) append to it as the simulation advances. Arming twice is a
    no-op."""
    if not network._failover_armed:
        network._failover_armed = True
        interval = network.config.failover.heartbeat_interval_s
        network.schedule(network.now + interval, network._heartbeat_tick)
        network.schedule(network.now + 1.5 * interval, network._monitor_tick)
    return network.broker_transitions
