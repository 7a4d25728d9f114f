//! One conformance table for both substrates. Every scenario runs
//! against TCP, VIA messaging and VIA remote writes, and its row states
//! what each must produce: the upcalls at both ends, plus the few
//! synchronous results that differ. The rows are the fault-model
//! column of DESIGN.md §2, made executable. The table runs twice: with
//! tracing and attribution off, where no row may emit or even build an
//! observation, and with both on, where each row also states the trace
//! events and attribution evidence it produces.

use simnet::fabric::{LossReason, NodeId};
use simnet::{SimDuration, SimTime};

use crate::api::tests::TRACE_BUILDS;
use crate::api::{CallParams, Effect, Effects, MsgClass, PtrParam, SendStatus, Substrate};
use crate::api::{TimerKey, Upcall};
use crate::cost::CostModel;
use crate::ferry::ferry;
use crate::{SubstrateImpl, TcpStack, ViaMode, ViaNic};

type Sub = SubstrateImpl<&'static str>;

const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);
/// A node with no endpoint: whatever is sent to it is lost.
const SILENT: NodeId = NodeId(2);

const CLEAN: CallParams = CallParams {
    ptr: PtrParam::Valid,
    size_delta: 0,
};
const NULL: CallParams = CallParams {
    ptr: PtrParam::Null,
    size_delta: 0,
};
const OFF_BY_40: CallParams = CallParams {
    ptr: PtrParam::Valid,
    size_delta: 40,
};

#[derive(Debug, Clone, Copy)]
enum Kind {
    Tcp,
    ViaMessaging,
    ViaRemoteWrite,
}

fn endpoint(kind: Kind, node: NodeId) -> Sub {
    match kind {
        Kind::Tcp => SubstrateImpl::Tcp(TcpStack::new(node, CostModel::tcp())),
        Kind::ViaMessaging => {
            SubstrateImpl::Via(ViaNic::new(node, ViaMode::Messaging, CostModel::via0()))
        }
        Kind::ViaRemoteWrite => {
            SubstrateImpl::Via(ViaNic::new(node, ViaMode::RemoteWrite, CostModel::via3()))
        }
    }
}

/// Two endpoints, `a` and `b`, and notes on what they did.
struct Net {
    a: Sub,
    b: Sub,
    now: SimTime,
    /// Whether the run traces and attributes.
    observe: bool,
    notes: Vec<String>,
    /// Trace event names, by end, and attribution evidence, as seen.
    observed: Vec<String>,
}

/// The timers `out` arms.
fn timers(out: &Effects<&'static str>) -> Vec<(SimTime, TimerKey)> {
    let arm = |e: &Effect<_>| match e {
        Effect::SetTimer { at, key } => Some((*at, *key)),
        _ => None,
    };
    out.iter().filter_map(arm).collect()
}

impl Net {
    fn new(kind: Kind, observe: bool) -> Self {
        Net {
            a: endpoint(kind, A),
            b: endpoint(kind, B),
            now: SimTime::ZERO,
            observe,
            notes: Vec::new(),
            observed: Vec::new(),
        }
    }

    /// An empty effect buffer with the run's switches.
    fn fx(&self) -> Effects<&'static str> {
        Effects::new(self.observe, self.observe)
    }

    fn end(&mut self, node: NodeId) -> &mut Sub {
        if node == A {
            &mut self.a
        } else {
            &mut self.b
        }
    }

    /// Ferries `out` until the network is quiet, notes the upcalls,
    /// sorted, a repeated one as `… ×n`, and keeps every observation
    /// for `observations`.
    fn run(&mut self, out: Effects<&'static str>) {
        let mut seen = Vec::new();
        let observed = &mut self.observed;
        ferry(
            self.now,
            &mut [&mut self.a, &mut self.b],
            out,
            |e| match e {
                Effect::Upcall(u) => seen.push(describe(&u)),
                Effect::Trace(ev) => observed.push(format!("{}: {}", lane_end(ev.tid), ev.name)),
                Effect::Attr(ev) => observed.push(format!("{ev:?}")),
                Effect::Transmit(_) | Effect::SetTimer { .. } | Effect::ChargeCpu(_) => {}
            },
        );
        seen.sort();
        self.notes.extend(counted(&seen));
    }

    /// Every observation since `connect`, sorted, a repeated one as
    /// `… ×n`.
    fn observations(&self) -> String {
        let mut seen = self.observed.clone();
        seen.sort();
        counted(&seen).join("; ")
    }

    /// `a` opens a connection to `b` and the handshake completes.
    fn connect(&mut self) {
        handshake(self);
        self.notes.clear();
        self.observed.clear();
        assert!(self.a.is_connected(B) && self.b.is_connected(A));
    }

    /// `from` sends `msg` to the other end; notes any status but
    /// `Accepted`.
    fn send(
        &mut self,
        from: NodeId,
        msg: &'static str,
        bytes: u32,
        params: CallParams,
    ) -> (SendStatus, Effects<&'static str>) {
        let (now, mut out) = (self.now, self.fx());
        let (to, end) = if from == A { (B, "a") } else { (A, "b") };
        let status = self
            .end(from)
            .send(now, to, MsgClass::Forward, msg, bytes, params, &mut out);
        if status != SendStatus::Accepted {
            self.notes.push(format!("{end}: {status:?}"));
        }
        (status, out)
    }

    /// Fires `timer` on `a`, notes what it did: nothing, or a retry
    /// (a transmission) or bare re-arm, under its key or a newer gen,
    /// runs its effects and returns the timers it armed.
    fn fire(&mut self, (at, key): (SimTime, TimerKey)) -> Vec<(SimTime, TimerKey)> {
        self.now = at;
        let mut out = self.fx();
        self.a.timer_fired(at, key, &mut out);
        if out.is_empty() {
            self.notes.push("a: inert".into());
        }
        let sent = out.iter().any(|e| matches!(e, Effect::Transmit(_)));
        let armed = timers(&out);
        for (_, new) in &armed {
            assert!(*new == key || new.gen > key.gen, "{new:?} after {key:?}");
            let what = if sent { "retry" } else { "re-arm" };
            let how = if *new == key { "same key" } else { "newer gen" };
            self.notes.push(format!("a: {what}, {how}"));
        }
        self.run(out);
        armed
    }

    fn set_receiving(&mut self, node: NodeId, receiving: bool) {
        let (now, mut out) = (self.now, self.fx());
        self.end(node).set_app_receiving(now, receiving, &mut out);
        self.run(out);
    }

    /// Which ends hold a usable connection to the other.
    fn note_links(&mut self) {
        let ends = match (self.a.is_connected(B), self.b.is_connected(A)) {
            (true, true) => "a b",
            (true, false) => "a",
            (false, true) => "b",
            (false, false) => "-",
        };
        self.notes.push(format!("up: {ends}"));
    }

    /// `node`'s lifetime counter `stat`, whichever substrate keeps it.
    fn stat(&self, node: NodeId, stat: &str) -> u64 {
        let mut reg = telemetry::MetricsRegistry::new();
        let sub = if node == A { &self.a } else { &self.b };
        sub.export_metrics(&mut reg);
        reg.counter(&format!("tcp.{stat}")) + reg.counter(&format!("via.{stat}"))
    }
}

/// The name of the end on trace lane `tid`.
fn lane_end(tid: u32) -> &'static str {
    if tid == A.0 as u32 {
        "a"
    } else {
        "b"
    }
}

/// Sorted `seen` with each run of equal notes as one, `… ×n`.
fn counted(seen: &[String]) -> Vec<String> {
    let count = |same: &[String]| match same.len() {
        1 => same[0].clone(),
        n => format!("{} ×{n}", same[0]),
    };
    seen.chunk_by(|x, y| x == y).map(count).collect()
}

/// One upcall as a note, named by the end that saw it: `b` sees the
/// upcalls about `a`, and `a` every other one.
fn describe(u: &Upcall<&'static str>) -> String {
    let at = |peer: &NodeId| if *peer == A { "b" } else { "a" };
    match u {
        Upcall::Deliver { peer, msg, .. } => format!("{}: deliver {msg}", at(peer)),
        Upcall::Writable { peer } => format!("{}: writable", at(peer)),
        Upcall::ConnBroken { peer, reason } => format!("{}: broken {}", at(peer), reason.label()),
        Upcall::Connected { peer } => format!("{}: connected", at(peer)),
        Upcall::CompletionError { peer, site, .. } => format!("{}: error {site:?}", at(peer)),
    }
}

fn handshake(net: &mut Net) {
    let mut out = net.fx();
    net.a.open(net.now, B, &mut out);
    net.run(out);
}

fn send_and_deliver(net: &mut Net) {
    net.connect();
    let (_, out) = net.send(A, "ping", 64, CLEAN);
    net.run(out);
    let delivered = net.stat(B, "messages_delivered");
    net.notes.push(format!("b: delivered {delivered}"));
}

/// The fabric loses the data frame and reports it to the sender's NIC.
fn loss(net: &mut Net) {
    net.connect();
    let (_, mut sent) = net.send(A, "m", 64, CLEAN);
    let armed = timers(&sent);
    let mut out = net.fx();
    for e in sent.drain() {
        if !matches!(e, Effect::Transmit(_)) {
            out.push(e);
        }
    }
    net.a
        .transmit_failed(net.now, B, LossReason::Injected, &mut out);
    net.run(out);
    for timer in armed {
        net.fire(timer);
    }
}

fn peer_restart(net: &mut Net) {
    net.connect();
    net.b.restart(net.now);
    net.note_links();
    let (_, out) = net.send(A, "m", 64, CLEAN);
    net.run(out);
}

/// `b`'s process stops consuming; `a` sends until it is told to wait.
fn peer_hang(net: &mut Net) {
    net.connect();
    net.set_receiving(B, false);
    let mut accepted = 0;
    while accepted < 200 {
        let (status, out) = net.send(A, "m", 8192, CLEAN);
        net.run(out);
        if status != SendStatus::Accepted {
            break;
        }
        accepted += 1;
    }
    net.notes.push(format!("a: accepted {accepted}"));
    net.set_receiving(B, true);
}

fn null_pointer(net: &mut Net) {
    net.connect();
    let (_, out) = net.send(A, "bad", 64, NULL);
    net.run(out);
    let delivered = net.stat(B, "messages_delivered");
    net.notes.push(format!("b: delivered {delivered}"));
    let (_, out) = net.send(A, "good", 64, CLEAN);
    net.run(out);
}

/// A wrong length, then a clean message right behind it.
fn off_by_n_size(net: &mut Net) {
    net.connect();
    let (_, mut out) = net.send(A, "bad", 64, OFF_BY_40);
    for e in net.send(A, "good", 64, CLEAN).1.drain() {
        out.push(e);
    }
    net.run(out);
}

/// `b`'s kernel cannot allocate while `a` sends to it; then neither
/// kernel can while `b` sends; then memory comes back.
fn kernel_alloc_failure(net: &mut Net) {
    net.connect();
    net.b.set_alloc_fail(true);
    let (_, out) = net.send(A, "m", 64, CLEAN);
    net.run(out);
    let failures = net.stat(B, "alloc_failures");
    let delivered = net.stat(B, "messages_delivered");
    net.notes.push(format!(
        "b: alloc failures {failures}, delivered {delivered}"
    ));
    net.a.set_alloc_fail(true);
    let (_, out) = net.send(B, "r", 64, CLEAN);
    if !out.iter().any(|e| matches!(e, Effect::Transmit(_))) {
        net.notes.push("b: nothing on the wire".into());
    }
    let armed = timers(&out);
    net.run(out);
    net.a.set_alloc_fail(false);
    net.b.set_alloc_fail(false);
    for (at, key) in armed {
        net.now = at;
        let mut out = net.fx();
        net.b.timer_fired(at, key, &mut out);
        net.run(out);
    }
}

fn pin_failure(net: &mut Net) {
    net.connect();
    for failing in [true, false] {
        net.a.set_pin_fail(failing);
        let mut out = net.fx();
        let pinned = net.a.register_pages(net.now, 1, &mut out);
        net.notes.push(format!(
            "a: pin {}",
            if pinned.is_ok() { "ok" } else { "refused" }
        ));
        net.run(out);
    }
    let (_, out) = net.send(A, "m", 64, CLEAN);
    net.run(out);
}

/// `a` opens to a node that never answers, retries, closes and opens
/// again, restarts and opens once more: only the live connection's
/// timer may act, and it gives up in the end.
fn reopen_after_teardown(net: &mut Net) {
    let open = |net: &mut Net| {
        let mut out = net.fx();
        net.a.open(net.now, SILENT, &mut out);
        let armed = timers(&out)[0];
        net.run(out);
        armed
    };
    let first = open(net);
    let retry = net.fire(first)[0];
    if retry.1 != first.1 {
        net.fire(first); // superseded by its re-arm
    }
    net.a.close(SILENT);
    let second = open(net);
    net.fire(retry);
    let retry = net.fire(second)[0];
    net.a.restart(net.now);
    let third = open(net);
    net.fire(retry);
    let give_up = (net.now + SimDuration::from_secs(60), third.1);
    net.fire(give_up);
}

struct Row {
    scenario: &'static str,
    run: fn(&mut Net),
    /// The notes on TCP, VIA messaging and VIA remote writes, in order,
    /// separated by `; `.
    expect: [&'static str; 3],
    /// With tracing and attribution on, the trace events (by end) and
    /// attribution evidence, sorted, in the same order: those after
    /// `Net::connect`, or all of them in a row that does not call it.
    observed: [&'static str; 3],
}

const ROWS: &[Row] = &[
    Row {
        scenario: "handshake",
        run: handshake,
        expect: ["a: connected; b: connected; up: a b"; 3],
        observed: [
            "a: tcp.connected; b: tcp.connected",
            "a: via.connected; b: via.connected",
            "a: via.connected; b: via.connected",
        ],
    },
    Row {
        scenario: "send and deliver",
        run: send_and_deliver,
        expect: ["b: deliver ping; b: delivered 1; up: a b"; 3],
        observed: ["", "", ""],
    },
    Row {
        // TCP retransmits silently; VIA fails-stop at once (§5.2).
        scenario: "loss",
        run: loss,
        expect: [
            "a: retry, newer gen; b: deliver m; up: a b",
            "a: broken nic-error; up: b",
            "a: broken nic-error; up: b",
        ],
        observed: [
            "Retransmit; a: tcp.retransmit",
            "Abort; a: via.conn_break",
            "Abort; a: via.conn_break",
        ],
    },
    Row {
        scenario: "peer restart",
        run: peer_restart,
        expect: ["up: a; a: broken peer-reset; up: -"; 3],
        observed: [
            "a: tcp.conn_break",
            "Abort; a: via.conn_break",
            "Abort; a: via.conn_break",
        ],
    },
    Row {
        // A hung peer only stalls the sender: no substrate reports a
        // broken connection (DESIGN.md §5, "Known defects").
        scenario: "peer hang",
        run: peer_hang,
        expect: [
            "a: WouldBlock; a: accepted 4; a: writable; b: deliver m ×4; up: a b",
            "a: WouldBlock; a: accepted 96; a: writable; b: deliver m ×96; up: a b",
            "a: WouldBlock; a: accepted 96; a: writable; b: deliver m ×96; up: a b",
        ],
        observed: ["", "a: via.descriptor", "a: via.descriptor"],
    },
    Row {
        // Synchronous EFAULT against an asynchronous completion error,
        // at both ends for a remote write (§5.5).
        scenario: "NULL pointer",
        run: null_pointer,
        expect: [
            "a: SyncError; b: delivered 0; b: deliver good; up: a b",
            "a: error Local; b: delivered 0; b: deliver good; up: a b",
            "a: error Local; b: error Remote; b: delivered 0; b: deliver good; up: a b",
        ],
        observed: [
            "a: tcp.efault",
            "a: via.completion_error",
            "a: via.completion_error; b: via.completion_error",
        ],
    },
    Row {
        // A byte stream loses its framing; message boundaries contain
        // the damage.
        scenario: "off-by-N size",
        run: off_by_n_size,
        expect: [
            "a: broken peer-reset; b: broken stream-corrupt; up: -",
            "b: deliver good; b: error Remote; up: a b",
            "a: error Local; b: deliver good; b: error Remote; up: a b",
        ],
        observed: [
            "a: tcp.conn_break; b: tcp.conn_break; b: tcp.framing_error",
            "a: via.completion_error; b: via.completion_error",
            "a: via.completion_error; b: via.completion_error",
        ],
    },
    Row {
        // Only TCP allocates kernel memory per packet (§5.4).
        scenario: "kernel-alloc failure",
        run: kernel_alloc_failure,
        expect: [
            "b: alloc failures 1, delivered 0; b: nothing on the wire; a: deliver r; up: a b",
            "b: deliver m; b: alloc failures 0, delivered 1; a: deliver r; up: a b",
            "b: deliver m; b: alloc failures 0, delivered 1; a: deliver r; up: a b",
        ],
        observed: ["", "", ""],
    },
    Row {
        // Only VIA pins memory; the connection is unaffected either way.
        scenario: "pin failure",
        run: pin_failure,
        expect: [
            "a: pin ok; a: pin ok; b: deliver m; up: a b",
            "a: pin refused; a: pin ok; b: deliver m; up: a b",
            "a: pin refused; a: pin ok; b: deliver m; up: a b",
        ],
        observed: ["", "a: via.pin_fail", "a: via.pin_fail"],
    },
    Row {
        // TCP supersedes a connection's older timers by gen; a VI keeps
        // one key and supersedes nothing (see `TimerKey`).
        scenario: "re-open after teardown",
        run: reopen_after_teardown,
        expect: [
            "a: retry, newer gen; a: inert; a: inert; a: retry, newer gen; a: inert; \
             a: broken retransmit-timeout; up: -",
            "a: retry, same key; a: inert; a: retry, same key; a: inert; \
             a: broken retransmit-timeout; up: -",
            "a: retry, same key; a: inert; a: retry, same key; a: inert; \
             a: broken retransmit-timeout; up: -",
        ],
        observed: [
            "a: tcp.conn_break",
            "Abort; a: via.conn_break",
            "Abort; a: via.conn_break",
        ],
    },
];

/// Runs every row with the switches `observe` sets and returns the
/// rows that did not match.
fn run_table(observe: bool) -> Vec<String> {
    let kinds = [Kind::Tcp, Kind::ViaMessaging, Kind::ViaRemoteWrite];
    let mut wrong = Vec::new();
    for row in ROWS {
        for (i, kind) in kinds.into_iter().enumerate() {
            let mut net = Net::new(kind, observe);
            let built = TRACE_BUILDS.with(|n| n.get());
            (row.run)(&mut net);
            net.note_links();
            let built = TRACE_BUILDS.with(|n| n.get()) - built;
            let seen = net.notes.join("; ");
            if seen != row.expect[i] {
                wrong.push(format!("{} on {kind:?}: {seen}", row.scenario));
            }
            let observed = net.observations();
            let expect = if observe { row.observed[i] } else { "" };
            if observed != expect {
                wrong.push(format!("{} on {kind:?} observed: {observed}", row.scenario));
            }
            if !observe && built != 0 {
                wrong.push(format!("{} on {kind:?} built {built} traces", row.scenario));
            }
        }
    }
    wrong
}

#[test]
fn every_substrate_produces_its_row() {
    let wrong = run_table(false);
    assert!(wrong.is_empty(), "{wrong:#?}");
}

#[test]
fn every_substrate_produces_its_row_with_observation_on() {
    let wrong = run_table(true);
    assert!(wrong.is_empty(), "{wrong:#?}");
}
