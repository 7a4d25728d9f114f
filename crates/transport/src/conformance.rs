//! One conformance table for both substrates. Every scenario runs
//! against TCP, VIA messaging and VIA remote writes, and its row states
//! what each must produce: the upcalls at both ends, plus the few
//! synchronous results that differ. The rows are the fault-model
//! column of DESIGN.md §2, made executable.

use simnet::fabric::{LossReason, NodeId};
use simnet::{SimDuration, SimTime};

use crate::api::{CallParams, Effect, Effects, MsgClass, PtrParam, SendStatus, Substrate};
use crate::api::{TimerKey, Upcall};
use crate::cost::CostModel;
use crate::ferry::exchange;
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
    notes: Vec<String>,
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
    fn new(kind: Kind) -> Self {
        Net {
            a: endpoint(kind, A),
            b: endpoint(kind, B),
            now: SimTime::ZERO,
            notes: Vec::new(),
        }
    }

    fn end(&mut self, node: NodeId) -> &mut Sub {
        if node == A {
            &mut self.a
        } else {
            &mut self.b
        }
    }

    /// Ferries `out` until the network is quiet and notes the upcalls,
    /// sorted, a repeated one as `… ×n`.
    fn run(&mut self, out: Effects<&'static str>) {
        let ups = exchange(self.now, &mut [&mut self.a, &mut self.b], out);
        let mut seen: Vec<String> = ups.iter().map(describe).collect();
        seen.sort();
        for same in seen.chunk_by(|x, y| x == y) {
            self.notes.push(match same.len() {
                1 => same[0].clone(),
                n => format!("{} ×{n}", same[0]),
            });
        }
    }

    /// `a` opens a connection to `b` and the handshake completes.
    fn connect(&mut self) {
        handshake(self);
        self.notes.clear();
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
        let (now, mut out) = (self.now, Vec::new());
        let (to, end) = if from == A { (B, "a") } else { (A, "b") };
        let status = self
            .end(from)
            .send(now, to, MsgClass::Forward, msg, bytes, params, &mut out);
        if status != SendStatus::Accepted {
            self.notes.push(format!("{end}: {status:?}"));
        }
        (status, out)
    }

    /// Fires `timer` on `a` and notes what it did: nothing, or a retry
    /// (a transmission) or bare re-arm, under its key or a newer gen.
    fn fire(&mut self, (at, key): (SimTime, TimerKey)) -> Effects<&'static str> {
        self.now = at;
        let mut out = Vec::new();
        self.a.timer_fired(at, key, &mut out);
        if out.is_empty() {
            self.notes.push("a: inert".into());
        }
        let sent = out.iter().any(|e| matches!(e, Effect::Transmit(_)));
        for (_, new) in timers(&out) {
            assert!(new == key || new.gen > key.gen, "{new:?} after {key:?}");
            let what = if sent { "retry" } else { "re-arm" };
            let how = if new == key { "same key" } else { "newer gen" };
            self.notes.push(format!("a: {what}, {how}"));
        }
        out
    }

    fn set_receiving(&mut self, node: NodeId, receiving: bool) {
        let (now, mut out) = (self.now, Vec::new());
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
    let mut out = Vec::new();
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
    let (_, mut out) = net.send(A, "m", 64, CLEAN);
    let armed = timers(&out);
    out.retain(|e| !matches!(e, Effect::Transmit(_)));
    net.a
        .transmit_failed(net.now, B, LossReason::Injected, &mut out);
    net.run(out);
    for timer in armed {
        let out = net.fire(timer);
        net.run(out);
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
    out.extend(net.send(A, "good", 64, CLEAN).1);
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
        let mut out = Vec::new();
        net.b.timer_fired(at, key, &mut out);
        net.run(out);
    }
}

fn pin_failure(net: &mut Net) {
    net.connect();
    for failing in [true, false] {
        net.a.set_pin_fail(failing);
        let pinned = net.a.register_pages(net.now, 1, &mut Vec::new());
        net.notes.push(format!(
            "a: pin {}",
            if pinned.is_ok() { "ok" } else { "refused" }
        ));
    }
    let (_, out) = net.send(A, "m", 64, CLEAN);
    net.run(out);
}

/// `a` opens to a node that never answers, retries, closes and opens
/// again, restarts and opens once more: only the live connection's
/// timer may act, and it gives up in the end.
fn reopen_after_teardown(net: &mut Net) {
    let open = |net: &mut Net| {
        let mut out = Vec::new();
        net.a.open(net.now, SILENT, &mut out);
        timers(&out)[0]
    };
    let first = open(net);
    let retry = timers(&net.fire(first))[0];
    if retry.1 != first.1 {
        net.fire(first); // superseded by its re-arm
    }
    net.a.close(SILENT);
    let second = open(net);
    net.fire(retry);
    let retry = timers(&net.fire(second))[0];
    net.a.restart(net.now);
    let third = open(net);
    net.fire(retry);
    let give_up = (net.now + SimDuration::from_secs(60), third.1);
    let out = net.fire(give_up);
    net.run(out);
}

struct Row {
    scenario: &'static str,
    run: fn(&mut Net),
    /// The notes on TCP, VIA messaging and VIA remote writes, in order,
    /// separated by `; `.
    expect: [&'static str; 3],
}

const ROWS: &[Row] = &[
    Row {
        scenario: "handshake",
        run: handshake,
        expect: ["a: connected; b: connected; up: a b"; 3],
    },
    Row {
        scenario: "send and deliver",
        run: send_and_deliver,
        expect: ["b: deliver ping; b: delivered 1; up: a b"; 3],
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
    },
    Row {
        scenario: "peer restart",
        run: peer_restart,
        expect: ["up: a; a: broken peer-reset; up: -"; 3],
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
    },
];

#[test]
fn every_substrate_produces_its_row() {
    let kinds = [Kind::Tcp, Kind::ViaMessaging, Kind::ViaRemoteWrite];
    let mut wrong = Vec::new();
    for row in ROWS {
        for (kind, expect) in kinds.into_iter().zip(row.expect) {
            let mut net = Net::new(kind);
            (row.run)(&mut net);
            net.note_links();
            let seen = net.notes.join("; ");
            if seen != expect {
                wrong.push(format!("{} on {kind:?}: {seen}", row.scenario));
            }
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}
