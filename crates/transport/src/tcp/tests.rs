use super::*;
use crate::api::{CleanInterposer, SendInterposer};
use crate::ferry::exchange;

type Stack = TcpStack<&'static str>;

fn pair() -> (Stack, Stack) {
    let a = TcpStack::new(NodeId(0), CostModel::tcp());
    let b = TcpStack::new(NodeId(1), CostModel::tcp());
    (a, b)
}

fn connect(a: &mut Stack, b: &mut Stack) {
    let mut out = Effects::default();
    a.open(SimTime::ZERO, b.node(), &mut out);
    exchange(SimTime::ZERO, &mut [a, b], out);
    assert!(a.is_connected(b.node()));
    assert!(b.is_connected(a.node()));
}

fn first_timer(out: &[Effect<&'static str>], kind: TimerKind) -> Option<(SimTime, TimerKey)> {
    out.iter().find_map(|e| match e {
        Effect::SetTimer { at, key } if key.kind == kind => Some((*at, *key)),
        _ => None,
    })
}

#[test]
fn small_message_round_trip() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    let mut out = Effects::default();
    let st = a.send(
        SimTime::ZERO,
        NodeId(1),
        MsgClass::Forward,
        "ping",
        64,
        CallParams::default(),
        &mut out,
    );
    assert_eq!(st, SendStatus::Accepted);
    let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
    let delivered: Vec<_> = ups
        .iter()
        .filter_map(|u| match u {
            Upcall::Deliver { msg, .. } => Some(*msg),
            _ => None,
        })
        .collect();
    assert_eq!(delivered, ["ping"]);
    assert_eq!(b.stats().messages_delivered, 1);
    // The ACK came back and cleaned the retained queue.
    assert_eq!(a.buffered_bytes(NodeId(1)), 0);
}

#[test]
fn an_empty_message_between_two_others_is_delivered() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    let mut delivered = Vec::new();
    for (msg, bytes) in [("first", 64), ("empty", 0), ("last", 64)] {
        let mut out = Effects::default();
        let st = a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            msg,
            bytes,
            CallParams::default(),
            &mut out,
        );
        assert_eq!(st, SendStatus::Accepted);
        let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        delivered.extend(ups.iter().filter_map(|u| match u {
            Upcall::Deliver { msg, .. } => Some(*msg),
            _ => None,
        }));
    }
    assert_eq!(delivered, ["first", "empty", "last"]);
    assert_eq!(b.stats().messages_delivered, 3);
    assert_eq!(a.buffered_bytes(NodeId(1)), 0);
}

#[test]
fn large_message_spans_segments_and_arrives_once() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    let mut out = Effects::default();
    a.send(
        SimTime::ZERO,
        NodeId(1),
        MsgClass::FileData,
        "file",
        40_000, // 5 segments at MSS 8192
        CallParams::default(),
        &mut out,
    );
    let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
    let n = ups
        .iter()
        .filter(|u| matches!(u, Upcall::Deliver { .. }))
        .count();
    assert_eq!(n, 1);
    assert!(a.stats().data_segments_sent >= 5);
}

#[test]
fn null_pointer_is_synchronous_efault() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    let mut out = Effects::default();
    let st = a.send(
        SimTime::ZERO,
        NodeId(1),
        MsgClass::FileData,
        "x",
        8192,
        CallParams {
            ptr: PtrParam::Null,
            size_delta: 0,
        },
        &mut out,
    );
    assert_eq!(st, SendStatus::SyncError);
    assert_eq!(a.stats().efaults, 1);
    // Nothing went on the wire.
    assert!(out.iter().all(|e| !matches!(e, Effect::Transmit(_))));
    // The connection is still healthy for subsequent traffic.
    let mut out = Effects::default();
    let st = a.send(
        SimTime::ZERO,
        NodeId(1),
        MsgClass::Forward,
        "ok",
        64,
        CallParams::default(),
        &mut out,
    );
    assert_eq!(st, SendStatus::Accepted);
    let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
    assert!(ups
        .iter()
        .any(|u| matches!(u, Upcall::Deliver { msg: "ok", .. })));
}

#[test]
fn off_by_n_corrupts_the_rest_of_the_stream() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    // One clean message, then a mangled one, then another clean one.
    let mut out = Effects::default();
    a.send(
        SimTime::ZERO,
        NodeId(1),
        MsgClass::Forward,
        "m1",
        64,
        CallParams::default(),
        &mut out,
    );
    a.send(
        SimTime::ZERO,
        NodeId(1),
        MsgClass::Forward,
        "bad",
        64,
        CallParams {
            ptr: PtrParam::OffBy(17),
            size_delta: 0,
        },
        &mut out,
    );
    a.send(
        SimTime::ZERO,
        NodeId(1),
        MsgClass::Forward,
        "m3",
        64,
        CallParams::default(),
        &mut out,
    );
    let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
    let delivered: Vec<_> = ups
        .iter()
        .filter_map(|u| match u {
            Upcall::Deliver { msg, .. } => Some(*msg),
            _ => None,
        })
        .collect();
    // Only the pre-fault prefix arrives; the receiver then detects
    // corruption and resets, so both ends see the break.
    assert_eq!(delivered, ["m1"]);
    assert_eq!(b.stats().framing_errors, 1);
    let breaks = ups
        .iter()
        .filter(|u| matches!(u, Upcall::ConnBroken { .. }))
        .count();
    assert_eq!(breaks, 2, "both ends must observe the reset");
    assert!(!a.is_connected(NodeId(1)));
    assert!(!b.is_connected(NodeId(0)));
}

#[test]
fn size_delta_also_poisons_the_stream() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    let mut out = Effects::default();
    a.send(
        SimTime::ZERO,
        NodeId(1),
        MsgClass::FileData,
        "bad",
        8192,
        CallParams {
            ptr: PtrParam::Valid,
            size_delta: 31,
        },
        &mut out,
    );
    let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
    assert!(ups.iter().all(|u| !matches!(u, Upcall::Deliver { .. })));
    assert_eq!(b.stats().framing_errors, 1);
}

#[test]
fn send_buffer_fills_and_reports_would_block() {
    let (mut a, _b) = pair();
    // Open but never complete the handshake: nothing drains.
    let mut out = Effects::default();
    a.open(SimTime::ZERO, NodeId(1), &mut out);
    let mut blocked = false;
    for _ in 0..100 {
        let mut out = Effects::default();
        let st = a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::FileData,
            "blob",
            8192,
            CallParams::default(),
            &mut out,
        );
        if st == SendStatus::WouldBlock {
            blocked = true;
            break;
        }
    }
    assert!(blocked, "a 32KB buffer must fill after 4 x 8KB sends");
}

#[test]
fn retransmission_recovers_a_lost_segment() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    let mut out = Effects::default();
    a.send(
        SimTime::ZERO,
        NodeId(1),
        MsgClass::Forward,
        "once",
        64,
        CallParams::default(),
        &mut out,
    );
    // Drop the data frame; keep only the retransmit timer.
    let timer = first_timer(&out, TimerKind::Retransmit).expect("retransmit timer armed");
    // Fire the timer: the stack must resend.
    let mut out = Effects::default();
    a.timer_fired(timer.0, timer.1, &mut out);
    assert_eq!(a.stats().retransmissions, 1);
    let ups = exchange(timer.0, &mut [&mut a, &mut b], out);
    assert!(ups
        .iter()
        .any(|u| matches!(u, Upcall::Deliver { msg: "once", .. })));
}

#[test]
fn superseded_retransmit_timer_is_inert() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    let mut out = Effects::default();
    a.send(
        SimTime::ZERO,
        NodeId(1),
        MsgClass::Forward,
        "m",
        64,
        CallParams::default(),
        &mut out,
    );
    let old = first_timer(&out, TimerKind::Retransmit).expect("retransmit timer armed");
    // The segment is lost; the firing timer retransmits and re-arms
    // with a fresh gen, superseding `old`.
    let mut out = Effects::default();
    a.timer_fired(old.0, old.1, &mut out);
    let new = first_timer(&out, TimerKind::Retransmit).expect("re-armed");
    assert!(new.1.gen > old.1.gen, "re-arm must supersede the old gen");
    assert_eq!(a.stats().retransmissions, 1);
    // The superseded key must never act again: no effects, no
    // retransmission, no timer churn.
    let mut out = Effects::default();
    a.timer_fired(new.0, old.1, &mut out);
    assert!(out.is_empty(), "stale timer produced effects: {out:?}");
    assert_eq!(a.stats().retransmissions, 1);
    drop(b);
}

#[test]
fn rto_backs_off_exponentially_and_aborts_eventually() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    let mut out = Effects::default();
    a.send(
        SimTime::ZERO,
        NodeId(1),
        MsgClass::Forward,
        "m",
        64,
        CallParams::default(),
        &mut out,
    );
    // Simulate total loss: fire retransmit timers forever.
    let mut timer = first_timer(&out, TimerKind::Retransmit).expect("armed");
    let mut broke = false;
    for _ in 0..60 {
        let mut out = Effects::default();
        a.timer_fired(timer.0, timer.1, &mut out);
        if out.iter().any(|e| {
            matches!(
                e,
                Effect::Upcall(Upcall::ConnBroken {
                    reason: BreakReason::RetransmitTimeout,
                    ..
                })
            )
        }) {
            broke = true;
            assert!(timer.0.saturating_since(SimTime::ZERO) >= ABORT_AFTER);
            break;
        }
        timer = first_timer(&out, TimerKind::Retransmit).expect("re-armed");
    }
    assert!(broke, "connection must abort after ~13 minutes of loss");
    assert_eq!(a.stats().aborts, 1);
    // The abort interval must be within the paper's 10..15-minute window.
    let secs = ABORT_AFTER.as_secs_f64();
    assert!((600.0..=900.0).contains(&secs));
    drop(b);
}

/// The paper's §5.3 rejoin race: a restarted node's new socket
/// coexists with the peer's stalled old socket; rejoin traffic flows
/// on the new one while the old one keeps the peer believing the
/// node never left — until a retransmission on the old socket draws
/// a reset.
#[test]
fn new_socket_coexists_with_a_stalled_old_one() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    // a has unacknowledged data in flight when b "crashes".
    let mut out = Effects::default();
    a.send(
        SimTime::ZERO,
        NodeId(1),
        MsgClass::Forward,
        "stalled",
        64,
        CallParams::default(),
        &mut out,
    );
    let rtx = first_timer(&out, TimerKind::Retransmit).expect("armed");
    // b reboots: fresh transport state, new socket to a.
    b.restart(SimTime::ZERO);
    let mut out = Effects::default();
    b.open(SimTime::ZERO, NodeId(0), &mut out);
    let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
    // The new socket establishes; the old one is still there.
    assert!(ups.iter().any(|u| matches!(u, Upcall::Connected { .. })));
    assert_eq!(a.conn_count(NodeId(1)), 2);
    // Traffic flows on the new socket in both directions.
    let mut out = Effects::default();
    b.send(
        SimTime::ZERO,
        NodeId(0),
        MsgClass::Control,
        "rejoin?",
        32,
        CallParams::default(),
        &mut out,
    );
    let ups = exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
    assert!(ups
        .iter()
        .any(|u| matches!(u, Upcall::Deliver { msg: "rejoin?", .. })));
    // Now the old socket's retransmission reaches the rebooted node:
    // reset, and the break finally surfaces at a.
    let mut out = Effects::default();
    a.timer_fired(rtx.0, rtx.1, &mut out);
    let ups = exchange(rtx.0, &mut [&mut a, &mut b], out);
    assert!(ups.iter().any(|u| matches!(
        u,
        Upcall::ConnBroken {
            reason: BreakReason::PeerReset,
            ..
        }
    )));
    assert!(b.stats().rsts_sent >= 1);
    assert_eq!(a.conn_count(NodeId(1)), 1, "only the new socket survives");
    assert!(a.is_connected(NodeId(1)));
}

#[test]
fn clean_interposer_composes_with_send() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    let mut interposer = CleanInterposer;
    let params = interposer.mangle(SimTime::ZERO, MsgClass::Forward, CallParams::default());
    let mut out = Effects::default();
    let st = a.send(
        SimTime::ZERO,
        NodeId(1),
        MsgClass::Forward,
        "m",
        64,
        params,
        &mut out,
    );
    assert_eq!(st, SendStatus::Accepted);
}

/// A known defect, pinned as expected behaviour: the stack has no
/// persist timer (RFC 1122 §4.2.2.17). If the window update that
/// reopens a zero window is lost — to the fabric, or because the
/// receiver cannot allocate the ACK's skbuf — the sender stays stalled,
/// with nothing on the wire and no timer armed, until the peer happens
/// to send it a data segment.
#[test]
fn a_lost_window_update_stalls_the_sender_until_peer_data_arrives() {
    for lost_to_alloc_failure in [false, true] {
        let (mut a, mut b) = pair();
        let mut out = Effects::default();
        a.open(SimTime::ZERO, NodeId(1), &mut out);
        let connect_timer = first_timer(&out, TimerKind::Connect).expect("armed");
        exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        // B hangs and advertises a zero window.
        let mut out = Effects::default();
        b.set_app_receiving(SimTime::ZERO, false, &mut out);
        exchange(SimTime::ZERO, &mut [&mut a, &mut b], out);
        // A sends: the message is buffered; nothing goes out, no timer.
        let mut out = Effects::default();
        let st = a.send(
            SimTime::ZERO,
            NodeId(1),
            MsgClass::Forward,
            "held",
            64,
            CallParams::default(),
            &mut out,
        );
        assert_eq!(st, SendStatus::Accepted);
        let wakes = out
            .iter()
            .any(|e| matches!(e, Effect::Transmit(_) | Effect::SetTimer { .. }));
        assert!(!wakes, "{out:?}");
        // B resumes, but its window update is lost.
        let mut out = Effects::default();
        b.set_alloc_fail(lost_to_alloc_failure);
        b.set_app_receiving(SimTime::ZERO, true, &mut out);
        b.set_alloc_fail(false);
        let sent = out.iter().any(|e| matches!(e, Effect::Transmit(_)));
        assert_eq!(
            sent, !lost_to_alloc_failure,
            "the ACK is built unless skbufs fail"
        );
        // Whatever B sent is lost on the fabric. A stays stalled: the
        // only timer it ever armed is a connect timer, inert once the
        // handshake is done.
        drop(out);
        let later = SimTime::ZERO + SimDuration::from_secs(60);
        let mut out = Effects::default();
        a.timer_fired(later, connect_timer.1, &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(a.buffered_bytes(NodeId(1)), 64);
        assert_eq!(a.stats().data_segments_sent, 0);
        // B's next data segment carries the open window; A resumes.
        let mut out = Effects::default();
        b.send(
            later,
            NodeId(0),
            MsgClass::Control,
            "poke",
            32,
            CallParams::default(),
            &mut out,
        );
        let ups = exchange(later, &mut [&mut a, &mut b], out);
        assert!(ups
            .iter()
            .any(|u| matches!(u, Upcall::Deliver { msg: "held", .. })));
        assert_eq!(a.buffered_bytes(NodeId(1)), 0);
    }
}
