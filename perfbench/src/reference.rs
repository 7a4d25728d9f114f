//! A fixed piece of host work timed beside every rep, so that the
//! end-to-end timings can be given at one host speed.
//!
//! On a shared host, other tenants change how fast this process computes
//! by half or more within minutes, while its CPU time keeps pace with wall
//! time: the process is not descheduled, each instruction just takes
//! longer. A run of a few tens of seconds mostly sits inside one such
//! period, so ten runs of unchanged code spread by whatever mix of
//! periods they met. The reference is a small discrete-event simulation
//! of its own (a binary-heap event queue, hash maps, a B-tree of
//! timeouts, short-lived messages and a directory of 240k small vectors),
//! the kinds of work the cluster simulator does, so it slows down with
//! the simulator: scaling by it took the spread of one-run medians of a
//! steady-n4 rep from 0.26 to 0.04 (README, "Reference speed"). It is
//! not the repository's code, so no change to the simulator moves it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Seconds the reference takes on the host the bounds were set on, in
/// its faster periods.
const NOMINAL_S: f64 = 0.035;

const FILES: usize = 240_000;
const NODES: usize = 16;
const EVENTS: usize = 100_000;
const TIMEOUT: u64 = 6_000;

/// A reply, boxed as the simulator boxes its messages.
struct Reply {
    file: u32,
    timeout: (u64, u64),
}

enum Event {
    /// A request for a file arrives at the node that holds it.
    Request(u32),
    /// The request's reply, which clears its timeout.
    Reply(Box<Reply>),
    /// A sweep of expired timeouts.
    Sweep,
}

/// `secs` of host time at the reference's nominal speed, given that the
/// reference took `reference_s` beside it.
pub fn scaled(secs: f64, reference_s: f64) -> f64 {
    secs * NOMINAL_S / reference_s
}

/// 64-bit xorshift: the same draws on every call.
fn draw(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs the reference once and returns the seconds its event loop took.
/// The directory is built fresh, like a simulation's, and dropped before
/// returning; at about 15 MiB it stays below every workload's own peak,
/// so it does not raise `peak_rss_mb`.
pub fn run() -> f64 {
    let mut holders: Vec<Vec<u16>> = (0..FILES).map(|f| vec![(f % NODES) as u16]).collect();
    let mut hits: HashMap<u32, u64> = HashMap::new();
    let mut queue: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut pending: HashMap<u64, Event> = HashMap::new();
    let mut timeouts: BTreeMap<(u64, u64), u32> = BTreeMap::new();
    let mut inboxes: Vec<VecDeque<Vec<u8>>> = (0..NODES).map(|_| VecDeque::new()).collect();
    let mut x = 0x5eed_1234u64;
    let mut seq = 0u64;
    let mut schedule = |queue: &mut BinaryHeap<_>, pending: &mut HashMap<_, _>, at, ev| {
        seq += 1;
        queue.push(Reverse((at, seq)));
        pending.insert(seq, ev);
    };
    for _ in 0..2_000 {
        let (at, file) = (draw(&mut x) % 10_000, draw(&mut x) % FILES as u64);
        schedule(&mut queue, &mut pending, at, Event::Request(file as u32));
    }

    let started = Instant::now();
    let mut acc = 0u64;
    for _ in 0..EVENTS {
        let Reverse((now, id)) = queue.pop().expect("every event schedules another");
        let ev = pending.remove(&id).expect("every queued event is pending");
        let r = draw(&mut x);
        match ev {
            Event::Request(file) => {
                let f = file as usize;
                let node = holders[f][0] as usize;
                let n = hits.entry(file).or_insert(0);
                *n += 1;
                acc = acc.wrapping_add(*n);
                let inbox = &mut inboxes[node];
                inbox.push_back(vec![node as u8; 128 + (r % 896) as usize]);
                if inbox.len() > 64 {
                    inbox.pop_front();
                }
                holders[f].push((r % NODES as u64) as u16);
                if holders[f].len() > 4 {
                    holders[f].truncate(1);
                }
                let timeout = (now + TIMEOUT, id);
                timeouts.insert(timeout, file);
                let reply = Event::Reply(Box::new(Reply { file, timeout }));
                schedule(&mut queue, &mut pending, now + 50 + r % 500, reply);
            }
            Event::Reply(reply) => {
                acc = acc.wrapping_add(u64::from(reply.file));
                timeouts.remove(&reply.timeout);
                let file = (draw(&mut x) % FILES as u64) as u32;
                schedule(
                    &mut queue,
                    &mut pending,
                    now + 1 + r % 300,
                    Event::Request(file),
                );
                if r.is_multiple_of(64) {
                    schedule(&mut queue, &mut pending, now + 1_000, Event::Sweep);
                }
            }
            Event::Sweep => {
                let expired: Vec<_> = timeouts
                    .range(..(now, 0))
                    .map(|(k, _)| *k)
                    .take(8)
                    .collect();
                for k in expired {
                    timeouts.remove(&k);
                }
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();
    black_box((acc, &holders, &inboxes));
    secs
}
