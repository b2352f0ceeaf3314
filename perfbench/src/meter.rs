//! Host-time measurement normalized for machine speed.
//!
//! On a shared host the speed available to one thread drifts by up to
//! 2× over minutes, so raw wall times of separate runs do not compare.
//! The meter therefore runs a short fixed calibration workload after
//! every timed step and scales the step by `CAL_NOMINAL_S / calibration`,
//! using the mean of the calibrations taken just before and just after
//! it. Normalized seconds are what the step would take on a host that
//! runs the calibration in `CAL_NOMINAL_S`; raw seconds are kept beside
//! them. The calibration is the benchmark's own code, so a change to the
//! program under test cannot move it.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// Seconds the calibration takes on an idle 2.1 GHz Xeon vCPU.
const CAL_NOMINAL_S: f64 = 0.012;

/// One actor of the calibration's miniature event loop: 104 bytes of
/// state plus a small inbox of heap-allocated messages.
struct Actor {
    state: [u64; 13],
    inbox: Vec<Vec<u8>>,
}

thread_local! {
    /// The miniature event loop's 100,000 actors (about 13 MiB), built
    /// once per thread so calibrations measure steady-state work.
    static ACTORS: RefCell<Vec<Actor>> = RefCell::new(
        (0..100_000)
            .map(|i| Actor { state: [i; 13], inbox: Vec::new() })
            .collect(),
    );
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The calibration workload, timed. Two fixed halves mirror the kinds of
/// work the simulator does: arithmetic and ordered-map churn over an
/// L2-sized table, and an event loop that pops a binary heap, touches
/// random actors across a multi-megabyte array and allocates messages.
fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut table = vec![0u64; 1 << 16];
    let mut map = BTreeMap::new();
    for i in 0..20_000u64 {
        let r = xorshift(&mut x);
        let slot = (r as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(i ^ r);
        map.insert(r & 0xfff, i);
        if i % 3 == 0 {
            map.remove(&((r >> 16) & 0xfff));
        }
    }
    std::hint::black_box((&table, &map));
    ACTORS.with(|actors| {
        let mut actors = actors.borrow_mut();
        let n = actors.len() as u64;
        let mut queue: BinaryHeap<Reverse<(u64, u64)>> = (0..2_000u64)
            .map(|i| Reverse((xorshift(&mut x) % 1_000, i)))
            .collect();
        for _ in 0..12_000 {
            let Some(Reverse((t, id))) = queue.pop() else {
                break;
            };
            let r = xorshift(&mut x);
            let actor = &mut actors[(id % n) as usize];
            let k = (r % 13) as usize;
            actor.state[k] = actor.state[k].wrapping_add(t);
            actor.inbox.push(vec![r as u8; 32 + (r % 200) as usize]);
            if actor.inbox.len() > 4 {
                actor.inbox.clear();
            }
            queue.push(Reverse((t + 1 + r % 100, (r >> 20) % n)));
        }
        std::hint::black_box(&*actors);
    });
    start.elapsed().as_secs_f64()
}

/// Accumulates timed steps, raw and normalized.
pub struct Meter {
    last_cal: f64,
    started: Option<Instant>,
    raw_s: f64,
    norm_s: f64,
}

/// Seconds one phase took.
#[derive(Clone, Copy, Default)]
pub struct Timing {
    /// Wall-clock seconds.
    pub raw_s: f64,
    /// Seconds normalized to the calibration's nominal speed.
    pub norm_s: f64,
}

impl Meter {
    /// A meter with its first calibration taken (after a warm-up that
    /// builds the calibration's actors).
    pub fn start() -> Meter {
        calibrate();
        Meter {
            last_cal: calibrate(),
            started: None,
            raw_s: 0.0,
            norm_s: 0.0,
        }
    }

    /// Starts timing a step.
    pub fn begin(&mut self) {
        self.started = Some(Instant::now());
    }

    /// Ends the step started by [`Meter::begin`] and calibrates.
    pub fn end(&mut self) {
        let started = self.started.take().expect("Meter::end without begin");
        let dt = started.elapsed().as_secs_f64();
        let cal = calibrate();
        self.raw_s += dt;
        self.norm_s += dt * CAL_NOMINAL_S / ((self.last_cal + cal) / 2.0);
        self.last_cal = cal;
    }

    /// The steps timed since the last call, and a fresh tally.
    pub fn take(&mut self) -> Timing {
        let t = Timing {
            raw_s: self.raw_s,
            norm_s: self.norm_s,
        };
        self.raw_s = 0.0;
        self.norm_s = 0.0;
        t
    }
}
