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

import functools
import heapq
import itertools
import logging
import math
from collections import defaultdict, deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable

import numpy as np

from .codec import JsonConfig
from .errors import InvalidConfigError, InvalidInputError

log = logging.getLogger(__name__)


class QoS(Enum):
    AT_MOST_ONCE = "at_most_once"
    AT_LEAST_ONCE = "at_least_once"


@dataclass(frozen=True, slots=True)
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
        for i, broker in enumerate(self.brokers):
            check_segment("broker id", broker)
            if broker in self.brokers[:i]:
                raise InvalidConfigError(f"broker {broker!r} is listed twice")
        if self.max_retries < 0 or self.buffer_cap < 1:
            raise InvalidConfigError("bad retry or buffer setting")
        if not 0 < self.retry_interval_s < math.inf:
            raise InvalidConfigError("retry interval must be positive and finite")
        unknown = {f.broker_id for f in self.broker_failures} - set(self.brokers)
        if unknown:
            raise InvalidConfigError(f"unknown brokers {sorted(unknown)}")


def check_segment(name: str, value: str) -> None:
    """Reject a value that cannot stand as one level of a topic."""
    if not value or "/" in value or "+" in value or "#" in value:
        raise InvalidConfigError(
            f"{name} must be one plain topic segment, got {value!r}")


def _check_topic(text: str, wildcards: bool) -> None:
    """Reject a topic, or with wildcards a subscription pattern, that the
    matcher cannot honour: an empty level, a '#', or a '+' that is not a
    whole level of a pattern. Plain string tests keep publish cheap."""
    if (not text or text[0] == "/" or text[-1] == "/" or "//" in text
            or "#" in text or "+" in text and not (wildcards and all(
                level == "+" or "+" not in level
                for level in text.split("/")))):
        raise InvalidInputError(
            f"{'pattern' if wildcards else 'topic'} {text!r}: every level must "
            f"be non-empty, '+' may only stand alone as a level of a "
            f"pattern, and '#' is not supported")


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
        self.heartbeat_topic = f"sys/heartbeat/{broker_id}"
        self.subscriptions: dict[str, list[tuple[str, ...]]] = {}  # split patterns
        # topic -> matching client ids in slot order; cleared on any change
        self.routes: dict[str, tuple[str, ...]] = {}


class _Client:
    def __init__(self, client_id: str, on_message, link: LinkModel):
        self.client_id = client_id
        self.on_message = on_message
        self.link = link
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

    __slots__ = ("msg", "up", "client", "broker_id", "attempts", "state",
                 "channel")

    def __init__(self, msg: Message, up: bool, client: _Client,
                 broker_id: str | None, channel: deque):
        self.msg = msg
        self.up = up  # client->broker; down is broker->client
        self.client = client
        self.broker_id = broker_id  # fixed for down, resolved per attempt for up
        self.attempts = 0
        self.state = _PENDING
        self.channel = channel  # this hop's transfers in publish order


class MeshNetwork:
    """Discrete-event pub/sub fabric; all randomness comes from config.seed."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        self.now = 0.0
        rng = np.random.default_rng(config.seed)
        # the generator's uniforms in scalar random() order, drawn 512 at a time
        self._uniform = itertools.chain.from_iterable(map(
            lambda k: rng.random(k).tolist(), itertools.repeat(512))).__next__
        self._partitions = tuple((p.t_start_s, p.t_end_s, p.nodes)
                                 for p in config.partitions)
        self.brokers = {b: BrokerState(b) for b in config.brokers}
        self.clients: dict[str, _Client] = {}
        # t, msg_id, topic, from, to, event, reason, attempt of each row
        self._rows: list = []
        self.broker_transitions: list[dict] = []
        self._heap: list = []
        self._seq = itertools.count()
        self._msg_counter = itertools.count(1)
        self._channels: defaultdict[tuple, deque[_Transfer]] = defaultdict(deque)
        self._delivered = 0  # deliveries of the current run_until call
        self._failover_armed = False
        for failure in config.broker_failures:
            self.schedule(failure.t_s, lambda b=failure.broker_id: self.kill_broker(b))

    # ---- scheduling core ----

    def schedule(self, t_s: float, fn: Callable[[], None]) -> None:
        """Run fn at simulated time t_s, which must not be before now."""
        if not t_s >= self.now:
            raise InvalidInputError(f"cannot schedule at {t_s} s before {self.now} s")
        heapq.heappush(self._heap, (t_s, next(self._seq), fn))

    def run_until(self, t_s: float) -> Deliveries:
        """Process every event due by t_s; returns this call's deliveries,
        of which only the count is kept."""
        if not self.now <= t_s < math.inf:  # trace times stay JSON numbers
            raise InvalidInputError(
                f"cannot run the clock from {self.now} s to {t_s} s")
        self._delivered = 0
        while self._heap and self._heap[0][0] <= t_s:
            t, _, fn = heapq.heappop(self._heap)
            self.now = t
            fn()
        self.now = t_s
        return Deliveries(self._delivered)

    @property
    def trace(self) -> TraceRows:
        """Read-only view of every trace row so far, rows traced later
        included; each row's dict is built when it is read."""
        return TraceRows(self._rows)

    # ---- wiring ----

    def add_client(self, client_id: str, on_message=None) -> None:
        if client_id in self.clients or client_id in self.brokers:
            raise InvalidInputError(f"duplicate node id {client_id!r}")
        client = _Client(client_id, on_message, self.config.link_overrides.get(
            client_id, self.config.default_link))
        self.clients[client_id] = client
        self._try_connect(client)

    def subscribe(self, client_id: str, pattern: str) -> None:
        """Register interest; replayed automatically after a failover."""
        client = self._client(client_id)
        _check_topic(pattern, wildcards=True)
        if pattern not in client.subscriptions:
            client.subscriptions.append(pattern)
        if client.current_broker is not None:
            self._register(self.brokers[client.current_broker], client_id,
                           [pattern])

    def publish(self, client_id: str, topic: str, payload: object,
                qos: QoS = QoS.AT_LEAST_ONCE) -> str:
        """Publish one message; returns its id. Buffered while disconnected."""
        client = self._client(client_id)
        _check_topic(topic, wildcards=False)
        msg = Message(msg_id=f"m{next(self._msg_counter):06d}", topic=topic,
                      payload=payload, qos=qos, publisher=client_id)
        self._trace(msg, "publish", client_id, client.current_broker)
        if client.buffer and qos is QoS.AT_LEAST_ONCE:
            # queue behind undrained messages to preserve publish order;
            # _attempt decides what a disconnected client does with the rest
            self._park(client, msg)
        else:
            self._start(msg, True, client)
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
        """One line per trace row, as json.dumps(row, sort_keys=True) of the
        row's dict, so its clock rounded to 9 decimals."""
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(itertools.starmap(_trace_line, _by_row(self._rows)))

    # ---- internals ----

    def _client(self, client_id: str) -> _Client:
        try:
            return self.clients[client_id]
        except KeyError:
            raise InvalidInputError(f"unknown client {client_id!r}")

    def _trace(self, msg: Message, event: str, frm: str, to: str | None,
               reason: str | None = None, attempt: int | None = None) -> None:
        """Extend the flat row list with one row's eight fields, the clock
        raw; reading or writing the row rounds it to 9 decimals."""
        self._rows.extend((self.now, msg.msg_id, msg.topic, frm, to or "",
                           event, reason, attempt))

    def _severed(self, a: str, b: str) -> bool:
        """True while an active partition holds exactly one of a and b."""
        now = self.now
        for start, end, nodes in self._partitions:
            if start <= now < end and (a in nodes) != (b in nodes):
                return True
        return False

    def _transmit(self, link: LinkModel) -> float | None:
        """Draw one transmission over link: None if it is lost, else its
        delay. The loss test draws first and the jitter only on a kept
        transmission, each only when the link has one."""
        if link.loss_prob > 0 and self._uniform() < link.loss_prob:
            return None
        if link.jitter_s > 0:
            # rng.uniform(0, j) is 0.0 + j * u, so this is bit-identical to it
            return link.latency_s + link.jitter_s * self._uniform()
        return link.latency_s

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
            self._start(client.buffer.popleft(), True, client)

    # ---- one hop: client to broker ("up") or broker to client ("down") ----

    def _start(self, msg: Message, up: bool, client: _Client,
               broker_id: str | None = None) -> None:
        channel = self._channels[up, msg.publisher, msg.topic, client.client_id]
        transfer = _Transfer(msg, up, client, broker_id, channel)
        channel.append(transfer)
        self._attempt(transfer)

    def _attempt(self, transfer: _Transfer) -> None:
        client = transfer.client
        msg = transfer.msg
        if transfer.up:
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
        if not self.brokers[broker_id].alive or self._partitions and \
                self._severed(client.client_id, broker_id):
            if msg.qos is QoS.AT_LEAST_ONCE:
                # unreachable, not lost: retry without spending a credit
                self._retry_later(transfer)
            else:
                self._kill(transfer, "unreachable", *ends)
            return
        delay = self._transmit(client.link)
        if delay is None:
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
        self.schedule(self.now + delay,
                      functools.partial(self._arrive, transfer, broker_id))

    def _arrive(self, transfer: _Transfer, broker_id: str) -> None:
        if transfer.up and not self.brokers[broker_id].alive:
            # the broker died while the message was in flight
            if transfer.msg.qos is QoS.AT_LEAST_ONCE:
                self._retry_later(transfer)
            else:
                self._kill(transfer, "broker_dead", transfer.client.client_id,
                           broker_id)
            return
        transfer.state = _ARRIVED
        transfer.broker_id = broker_id
        self._pump(transfer.channel)

    def _retry_later(self, transfer: _Transfer) -> None:
        self.schedule(self.now + self.config.retry_interval_s,
                      functools.partial(self._attempt, transfer))

    def _kill(self, transfer: _Transfer, reason: str | None = None,
              frm: str = "", to: str = "") -> None:
        """Retire a transfer, tracing a drop when a reason is given."""
        transfer.state = _DEAD
        if reason is not None:
            self._trace(transfer.msg, "drop", frm, to, reason=reason)
        self._pump(transfer.channel)

    def _fanout(self, msg: Message, broker_id: str) -> None:
        broker = self.brokers[broker_id]
        route = broker.routes.get(msg.topic)
        if route is None:
            levels = msg.topic.split("/")
            route = broker.routes[msg.topic] = tuple(
                client_id for client_id, patterns in broker.subscriptions.items()
                if any(_levels_match(p, levels) for p in patterns))
        for client_id in route:
            self._start(msg, False, self.clients[client_id], broker_id)

    # ---- ordered handoff ----

    def _pump(self, channel: deque[_Transfer]) -> None:
        """Release the channel head when it has resolved, preserving order."""
        while channel:
            head = channel[0]
            if head.state == _DEAD:
                channel.popleft()
                continue
            if head.state != _ARRIVED:
                return
            channel.popleft()
            if head.up:
                self._fanout(head.msg, head.broker_id)
            else:
                self._deliver(head)

    def _deliver(self, transfer: _Transfer) -> None:
        client = transfer.client
        msg = transfer.msg
        self._trace(msg, "deliver", transfer.broker_id, client.client_id)
        self._delivered += 1
        if client.on_message is not None:
            client.on_message(client.client_id, msg, self.now)

    # ---- heartbeats and failover ----

    def _heartbeat_tick(self) -> None:
        interval = self.config.failover.heartbeat_interval_s
        for broker in self.brokers.values():
            if not broker.alive:
                continue
            msg = Message(msg_id=f"m{next(self._msg_counter):06d}",
                          topic=broker.heartbeat_topic, payload=None,
                          qos=QoS.AT_MOST_ONCE, publisher=broker.broker_id)
            self._trace(msg, "publish", broker.broker_id, "")
            for client in self.clients.values():
                if client.current_broker != broker.broker_id:
                    continue
                if self._partitions and \
                        self._severed(client.client_id, broker.broker_id):
                    continue
                delay = self._transmit(client.link)
                if delay is not None:
                    self.schedule(self.now + delay, functools.partial(
                        self._receive_heartbeat, client, msg))
        self.schedule(self.now + interval, self._heartbeat_tick)

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
        self.schedule(self.now + interval, self._monitor_tick)

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
                self.schedule(self.now + self.config.failover.resend_delay_s,
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


_ROW = 8  # fields of one trace row in MeshNetwork._rows


def _by_row(flat: list):
    """The rows of a flat trace list as tuples of their eight fields."""
    return zip(*[iter(flat)] * _ROW)


def trace_fields(trace: Iterable[dict]):
    """(msg_id, event, topic) of each trace row; the mesh's view gives them
    from its flat list without building the row dicts."""
    if isinstance(trace, TraceRows):
        flat = trace._flat
        return zip(*(itertools.islice(flat, k, None, _ROW) for k in (1, 5, 2)))
    return ((row["msg_id"], row["event"], row["topic"]) for row in trace)


def _row_dict(t, msg_id, topic, frm, to, event, reason, attempt) -> dict:
    """A _trace row as a dict, its clock rounded to 9 decimals; reason and
    attempt only when set."""
    row = {"t": round(t, 9), "msg_id": msg_id, "topic": topic, "from": frm,
           "to": to, "event": event}
    if reason is not None:
        row["reason"] = reason
    if attempt is not None:
        row["attempt"] = attempt
    return row


def _trace_line(t, msg_id, topic, frm, to, event, reason, attempt) -> str:
    """A _trace row as json.dumps(_row_dict(...), sort_keys=True) writes it,
    plus a newline. The key set is closed, so the sorted order is written
    out."""
    if type(t) is float and 1e-4 <= t < 1e6:
        # 9 decimals here are at most 15 significant digits, which repr of
        # round(t, 9) gives back unchanged, and repr writes no exponent
        t = ("%.9f" % t).rstrip("0")
        if t[-1] == ".":
            t += "0"
    else:
        # t is an int after run_until(5); np.float64 rounds to np.float64
        # and prints as a float
        t = round(t, 9)
        t = int.__repr__(t) if isinstance(t, int) else float.__repr__(t)
    attempt = "" if attempt is None else f'"attempt": {int.__repr__(attempt)}, '
    reason = "" if reason is None else f'"reason": {_quote(reason)}, '
    return (f'{{{attempt}"event": {_quote(event)}, '
            f'"from": {_quote(frm)}, "msg_id": {_quote(msg_id)}, '
            f'{reason}"t": {t}, "to": {_quote(to)}, '
            f'"topic": {_quote(topic)}}}\n')


class TraceRows:
    """Read-only view of a network's trace, giving its length and its rows
    in order. The rows are kept in one flat list, eight fields a row with
    the raw clock, and each row's dict, its clock rounded to 9 decimals, is
    built when it is read; rows traced after the view was taken show."""

    __slots__ = ("_flat",)

    def __init__(self, flat: list):
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat) // _ROW

    def __iter__(self):
        return itertools.starmap(_row_dict, _by_row(self._flat))


class Deliveries:
    """The number of deliveries of one run_until call; nothing of them is
    kept. It stays for the benchmark's count until that reads the trace."""

    __slots__ = ("_count",)

    def __init__(self, count: int):
        self._count = count

    def __len__(self) -> int:
        return self._count


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
