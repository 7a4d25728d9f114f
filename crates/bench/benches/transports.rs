//! Benchmarks of the TCP and VIA protocol state machines: messages per
//! second through a connected pair, without an event loop.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simnet::fabric::NodeId;
use simnet::SimTime;
use std::hint::black_box;
use transport::tcp::TcpStack;
use transport::via::{ViaMode, ViaNic};
use transport::{CallParams, CostModel, Effect, Effects, MsgClass, Substrate};

/// Ferries frames between two substrates until quiescent.
fn pump<M: Clone>(
    now: SimTime,
    a: &mut dyn Substrate<M>,
    b: &mut dyn Substrate<M>,
    mut effects: Effects<M>,
) -> usize {
    let mut delivered = 0;
    let mut queue: Vec<Effect<M>> = effects.drain().collect();
    while let Some(e) = queue.pop() {
        match e {
            Effect::Transmit(frame) => {
                if frame.dst == b.node() {
                    b.frame_arrived(now, frame, &mut effects);
                } else {
                    a.frame_arrived(now, frame, &mut effects);
                }
                queue.extend(effects.drain());
            }
            Effect::Upcall(transport::Upcall::Deliver { .. }) => delivered += 1,
            _ => {}
        }
    }
    delivered
}

fn tcp_pair() -> (TcpStack<u64>, TcpStack<u64>) {
    let mut a = TcpStack::new(NodeId(0), CostModel::tcp());
    let mut b = TcpStack::new(NodeId(1), CostModel::tcp());
    let mut out = Effects::default();
    a.open(SimTime::ZERO, NodeId(1), &mut out);
    pump(SimTime::ZERO, &mut a, &mut b, out);
    (a, b)
}

fn via_pair() -> (ViaNic<u64>, ViaNic<u64>) {
    let mut a = ViaNic::new(NodeId(0), ViaMode::RemoteWrite, CostModel::via5());
    let mut b = ViaNic::new(NodeId(1), ViaMode::RemoteWrite, CostModel::via5());
    let mut out = Effects::default();
    a.open(SimTime::ZERO, NodeId(1), &mut out);
    pump(SimTime::ZERO, &mut a, &mut b, out);
    (a, b)
}

fn message_round_trips(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_msgs");
    group.throughput(Throughput::Elements(1));

    group.bench_function("tcp_8k_file", |b| {
        let (mut s, mut r) = tcp_pair();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut out = Effects::default();
            s.send(
                SimTime::ZERO,
                NodeId(1),
                MsgClass::FileData,
                i,
                8192,
                CallParams::default(),
                &mut out,
            );
            black_box(pump(SimTime::ZERO, &mut s, &mut r, out))
        })
    });

    group.bench_function("via_8k_file", |b| {
        let (mut s, mut r) = via_pair();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut out = Effects::default();
            s.send(
                SimTime::ZERO,
                NodeId(1),
                MsgClass::FileData,
                i,
                8192,
                CallParams::default(),
                &mut out,
            );
            black_box(pump(SimTime::ZERO, &mut s, &mut r, out))
        })
    });

    group.bench_function("via_64b_control", |b| {
        let (mut s, mut r) = via_pair();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut out = Effects::default();
            s.send(
                SimTime::ZERO,
                NodeId(1),
                MsgClass::Forward,
                i,
                64,
                CallParams::default(),
                &mut out,
            );
            black_box(pump(SimTime::ZERO, &mut s, &mut r, out))
        })
    });
    group.finish();
}

fn connection_churn(c: &mut Criterion) {
    c.bench_function("transport/tcp_connect_teardown", |b| {
        b.iter(|| {
            let (mut s, mut r) = tcp_pair();
            s.restart(SimTime::ZERO);
            let mut out = Effects::default();
            s.open(SimTime::ZERO, NodeId(1), &mut out);
            black_box(pump(SimTime::ZERO, &mut s, &mut r, out))
        })
    });
}

criterion_group!(benches, message_round_trips, connection_churn);
criterion_main!(benches);
