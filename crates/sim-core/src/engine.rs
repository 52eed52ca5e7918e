//! Generic discrete-event simulation engine.
//!
//! The engine owns a pending-event queue of `(time, sequence, event)`
//! entries and repeatedly delivers the earliest event to a user-supplied
//! world. Ties in time are broken by insertion order (FIFO), which makes
//! runs fully deterministic.
//!
//! The queue is a `BinaryHeap` of 24-byte `(time, seq, slot)` tickets
//! over a **slab** (`Vec` + free list) that holds the event payloads
//! (see DESIGN.md "Engine performance"). The heap sifts fixed-size
//! tickets rather than whole events, and after warm-up no event costs an
//! allocation. `seq` is unique, so the heap's pop order is exactly the
//! `(time, seq)` lexicographic order.
//!
//! Beside the queue, [`Engine::run_merged`] accepts a time-sorted
//! **external stream** — the fleet's pre-generated arrivals — and merges
//! it into the run one event at a time, so the queue holds only
//! in-flight work instead of the whole horizon. An external event wins
//! every tie: it is delivered before any queued event at the same
//! instant, exactly as if it had been scheduled up front with a lower
//! sequence number than anything the run schedules.
//!
//! A handler may also **run ahead** of the queue:
//! [`Scheduler::try_advance`] says whether an event at a given instant
//! would be the engine's very next delivery — at or after the clock,
//! strictly before every queued event and inside the current run's
//! limit — and if so books it as scheduled and delivered and moves the
//! clock, so the handler handles it in place instead of queueing it.
//! This is exact only as the handler's last action: anything it did
//! after the inline event would, through the queue, have happened
//! before it. The clock and the counters live in the scheduler, so
//! [`Engine::now`], the instants the runs return and [`EngineStats`]
//! count inline deliveries exactly as queued ones.
//!
//! Components of a simulation are *passive* state machines; only the world
//! type knows the event enum and wires components together:
//!
//! ```
//! use sim_core::engine::{Engine, Scheduler, World};
//! use sim_core::time::{SimDuration, SimTime};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, _ev: Ev, sched: &mut Scheduler<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             sched.schedule_after(now, SimDuration::from_micros(10), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut world = Counter { fired: 0 };
//! let mut engine = Engine::new();
//! engine.scheduler().schedule(SimTime::ZERO, Ev::Tick);
//! let end = engine.run(&mut world);
//! assert_eq!(world.fired, 3);
//! assert_eq!(end.as_nanos(), 20_000);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A simulation world: owns all component state and interprets events.
pub trait World {
    /// The event alphabet of this simulation.
    type Event;

    /// Handles one event at simulated instant `now`, optionally scheduling
    /// follow-up events.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Slab allocator for event payloads: stable `u32` slots, free-list reuse,
/// no per-event heap allocation after warm-up.
struct Slab<E> {
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Slab<E> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn alloc(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(event);
                i
            }
            None => {
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Frees `slot` and returns its payload. A slot is pushed onto the
    /// free list only when it actually held a live event, so double-frees
    /// cannot alias a later allocation.
    fn take(&mut self, slot: u32) -> Option<E> {
        let e = self.slots[slot as usize].take();
        if e.is_some() {
            self.free.push(slot);
        }
        e
    }
}

/// Self-statistics of one engine run: how much work the simulator itself
/// did, independent of what the simulated system did. Harvested by the
/// faasnap-obs self-profiler (sim-core sits below it in the crate DAG, so
/// this is a plain value type rather than a profiler handle).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events delivered to the world, external and inline ones included.
    pub delivered: u64,
    /// Events ever scheduled (delivered + still pending + dropped),
    /// external and inline ones included.
    pub scheduled: u64,
    /// High-water mark of the pending-event queue. External events of
    /// [`Engine::run_merged`] never enter the queue, so they never count;
    /// an inline event counts as if it had been pushed and popped at once.
    pub peak_pending: u64,
    /// Events delivered without entering the queue, through
    /// [`Scheduler::try_advance`].
    pub inline: u64,
}

/// The pending-event queue and the clock, exposed to event handlers for
/// scheduling and running ahead.
///
/// A min-heap of `(time ns, seq, slab slot)` tickets: `seq` is the
/// global schedule order, so no two tickets tie and the heap pops in
/// exact `(time, seq)` order. Every event the run schedules takes a
/// `seq`, inline ones included, so `seq` plus the external events
/// delivered is the count of events ever scheduled.
pub struct Scheduler<E> {
    slab: Slab<E>,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
    /// External events [`Engine::run_merged`] delivered.
    external: u64,
    peak_pending: u64,
    /// The clock: the instant of the last delivered event.
    now: SimTime,
    delivered: u64,
    inline: u64,
    /// An inline delivery must be strictly before this instant (ns): one
    /// past `run_until`'s deadline, the next external instant under
    /// `run_merged`, and 0 outside a run.
    inline_before: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            slab: Slab::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            external: 0,
            peak_pending: 0,
            now: SimTime::ZERO,
            delivered: 0,
            inline: 0,
            inline_before: 0,
        }
    }

    /// Schedules `event` at absolute instant `at`. An instant behind the
    /// clock is accepted here; the engine panics on it at delivery.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let slot = self.slab.alloc(event);
        self.heap.push(Reverse((at.as_nanos(), self.seq, slot)));
        self.seq += 1;
        self.peak_pending = self.peak_pending.max(self.heap.len() as u64);
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, now: SimTime, delay: SimDuration, event: E) {
        self.schedule(now + delay, event);
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Runs ahead of the queue: returns true, and books one event at `at`
    /// as scheduled and delivered and moves the clock to `at`, when that
    /// event would be the engine's next delivery anyway. That holds when
    /// `at` is at or after the clock, strictly before every queued event
    /// (a queued one at the same instant has a lower `seq` and goes
    /// first) and inside the current run's limit (`run_until`'s deadline,
    /// or strictly before `run_merged`'s next external instant). The
    /// caller then handles the event itself, in place; on false it
    /// schedules the event as usual.
    ///
    /// Exact only as the handler's last action: whatever the handler did
    /// after an inline event would, through the queue, have come first.
    pub fn try_advance(&mut self, at: SimTime) -> bool {
        let head = self.heap.peek().map_or(u64::MAX, |&Reverse((t, _, _))| t);
        if at < self.now || at.as_nanos() >= head.min(self.inline_before) {
            return false;
        }
        self.seq += 1;
        self.peak_pending = self.peak_pending.max(self.heap.len() as u64 + 1);
        self.now = at;
        self.delivered += 1;
        self.inline += 1;
        true
    }

    /// Pops the earliest event if its time is `<= limit`.
    fn pop_at_most(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let &Reverse((time, _, _)) = self.heap.peek()?;
        if time > limit.as_nanos() {
            return None;
        }
        let Reverse((time, _, slot)) = self.heap.pop()?;
        match self.slab.take(slot) {
            Some(event) => Some((SimTime::from_nanos(time), event)),
            None => panic!("scheduler: queued ticket lost its slab payload"),
        }
    }
}

/// The discrete-event engine: runs a scheduler's queue, and its clock,
/// through a world.
pub struct Engine<E> {
    scheduler: Scheduler<E>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with an empty queue at time zero.
    pub fn new() -> Self {
        Engine {
            scheduler: Scheduler::new(),
        }
    }

    /// Current simulated time (the timestamp of the last delivered event,
    /// inline ones included).
    pub fn now(&self) -> SimTime {
        self.scheduler.now
    }

    /// Access to the scheduler, e.g. for seeding initial events.
    pub fn scheduler(&mut self) -> &mut Scheduler<E> {
        &mut self.scheduler
    }

    /// Self-statistics of the run so far.
    pub fn stats(&self) -> EngineStats {
        let s = &self.scheduler;
        EngineStats {
            delivered: s.delivered,
            scheduled: s.seq + s.external,
            peak_pending: s.peak_pending,
            inline: s.inline,
        }
    }

    /// Runs until the event queue is empty. Returns the final clock value.
    ///
    /// # Panics
    ///
    /// Panics if an event is scheduled in the past (a bug in the world),
    /// since that would silently corrupt causality.
    pub fn run<W: World<Event = E>>(&mut self, world: &mut W) -> SimTime {
        self.run_until(world, SimTime::MAX)
    }

    /// Runs until the queue is empty or the next event is later than
    /// `deadline`. Events exactly at `deadline` are delivered, and no
    /// inline delivery passes it.
    pub fn run_until<W: World<Event = E>>(&mut self, world: &mut W, deadline: SimTime) -> SimTime {
        self.scheduler.inline_before = deadline.as_nanos().saturating_add(1);
        while let Some((time, event)) = self.scheduler.pop_at_most(deadline) {
            self.deliver(world, time, event);
        }
        self.scheduler.inline_before = 0;
        self.scheduler.now
    }

    /// Runs a time-sorted `external` event stream merged with the queue,
    /// then runs the queue dry. Returns the final clock value.
    ///
    /// Before each external event at `t`, every queued event strictly
    /// before `t` is delivered; queued events at `t` wait, so the
    /// external event wins the tie. While an external event is handled,
    /// inline deliveries stay strictly before the next external instant.
    /// The delivery order is therefore exactly that of scheduling the
    /// whole stream up front and calling [`Engine::run`], but the queue
    /// never holds the stream: external events count in `delivered` and
    /// `scheduled`, never in `pending` or `peak_pending`.
    ///
    /// # Panics
    ///
    /// Panics if the stream goes back in time, or, like [`Engine::run`],
    /// if an event is scheduled in the past.
    pub fn run_merged<W, I>(&mut self, world: &mut W, external: I) -> SimTime
    where
        W: World<Event = E>,
        I: IntoIterator<Item = (SimTime, E)>,
    {
        let mut external = external.into_iter().peekable();
        while let Some((at, event)) = external.next() {
            if let Some(before) = at.as_nanos().checked_sub(1) {
                self.run_until(world, SimTime::from_nanos(before));
            }
            assert!(
                at >= self.scheduler.now,
                "external event stream went back in time: {at} < {}",
                self.scheduler.now
            );
            self.scheduler.external += 1;
            self.scheduler.inline_before = external
                .peek()
                .map_or(u64::MAX, |(next, _)| next.as_nanos());
            self.deliver(world, at, event);
        }
        self.run(world)
    }

    fn deliver<W: World<Event = E>>(&mut self, world: &mut W, time: SimTime, event: E) {
        let s = &mut self.scheduler;
        assert!(
            time >= s.now,
            "event scheduled in the past: {time} < {}",
            s.now
        );
        s.now = time;
        s.delivered += 1;
        world.handle(time, event, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Ev {
        A(u32),
        B,
    }

    #[derive(Default)]
    struct Recorder {
        log: Vec<(u64, Ev)>,
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
            self.log.push((now.as_nanos(), ev));
            if let Ev::A(n) = ev {
                if n > 0 {
                    sched.schedule_after(now, SimDuration::from_nanos(5), Ev::A(n - 1));
                }
            }
        }
    }

    #[test]
    fn delivers_in_time_order() {
        let mut w = Recorder::default();
        let mut e = Engine::new();
        e.scheduler().schedule(SimTime::from_nanos(30), Ev::B);
        e.scheduler().schedule(SimTime::from_nanos(10), Ev::A(0));
        e.scheduler().schedule(SimTime::from_nanos(20), Ev::B);
        e.run(&mut w);
        let times: Vec<u64> = w.log.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn fifo_tie_breaking() {
        let mut w = Recorder::default();
        let mut e = Engine::new();
        e.scheduler().schedule(SimTime::from_nanos(10), Ev::A(0));
        e.scheduler().schedule(SimTime::from_nanos(10), Ev::B);
        e.run(&mut w);
        assert_eq!(w.log, vec![(10, Ev::A(0)), (10, Ev::B)]);
    }

    #[test]
    fn chained_scheduling_advances_clock() {
        let mut w = Recorder::default();
        let mut e = Engine::new();
        e.scheduler().schedule(SimTime::ZERO, Ev::A(3));
        let end = e.run(&mut w);
        assert_eq!(end.as_nanos(), 15);
        assert_eq!(w.log.len(), 4);
        assert_eq!(e.stats().delivered, 4);
    }

    #[test]
    fn run_until_respects_deadline_inclusive() {
        let mut w = Recorder::default();
        let mut e = Engine::new();
        for t in [5u64, 10, 15] {
            e.scheduler().schedule(SimTime::from_nanos(t), Ev::B);
        }
        e.run_until(&mut w, SimTime::from_nanos(10));
        assert_eq!(w.log.len(), 2);
        assert_eq!(e.scheduler().pending(), 1);
        // Resume to completion.
        e.run(&mut w);
        assert_eq!(w.log.len(), 3);
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn past_event_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<()>) {
                // Schedule behind the clock: must be rejected.
                sched.schedule(now - SimDuration::from_nanos(1), ());
            }
        }
        let mut e = Engine::new();
        e.scheduler().schedule(SimTime::from_nanos(10), ());
        e.run(&mut Bad);
    }

    #[test]
    fn try_advance_delivers_only_the_next_event_of_a_run() {
        // A(1) at 0 is handled while B waits at 10 and the run's deadline
        // is 20: a continuation at B's instant must queue behind it, one
        // before it runs ahead, and none passes the deadline.
        struct Ahead {
            offers: Vec<(u64, bool)>,
        }
        impl World for Ahead {
            type Event = Ev;
            fn handle(&mut self, _now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
                if ev == Ev::A(1) {
                    for t in [10, 21, 9, 8] {
                        let ok = sched.try_advance(SimTime::from_nanos(t));
                        self.offers.push((t, ok));
                    }
                }
            }
        }
        let mut e = Engine::new();
        assert!(!e.scheduler().try_advance(SimTime::ZERO), "outside a run");
        e.scheduler().schedule(SimTime::ZERO, Ev::A(1));
        e.scheduler().schedule(SimTime::from_nanos(10), Ev::B);
        let mut w = Ahead { offers: Vec::new() };
        let end = e.run_until(&mut w, SimTime::from_nanos(20));
        assert_eq!(
            w.offers,
            vec![(10, false), (21, false), (9, true), (8, false)]
        );
        assert_eq!((end, e.now()), (SimTime::from_nanos(10), end));
        let stats = e.stats();
        assert_eq!((stats.delivered, stats.scheduled, stats.inline), (3, 3, 1));
        assert_eq!(stats.peak_pending, 2);
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn past_event_behind_an_inline_delivery_panics() {
        struct Ahead;
        impl World for Ahead {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<()>) {
                // Run the clock ahead, then schedule behind where it went.
                assert!(sched.try_advance(now + SimDuration::from_nanos(10)));
                sched.schedule(now + SimDuration::from_nanos(5), ());
            }
        }
        let mut e = Engine::new();
        e.scheduler().schedule(SimTime::ZERO, ());
        e.run(&mut Ahead);
    }

    #[test]
    fn stats_track_delivered_scheduled_peak() {
        let mut w = Recorder::default();
        let mut e = Engine::new();
        // Three seeded events → peak queue depth 3; A(2) chains two more.
        e.scheduler().schedule(SimTime::from_nanos(10), Ev::A(2));
        e.scheduler().schedule(SimTime::from_nanos(20), Ev::B);
        e.scheduler().schedule(SimTime::from_nanos(30), Ev::B);
        e.run(&mut w);
        let stats = e.stats();
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.scheduled, 5);
        assert_eq!(stats.peak_pending, 3);
    }

    #[test]
    fn run_merged_external_events_win_ties_and_never_queue() {
        let mut w = Recorder::default();
        let mut e = Engine::new();
        // A(1) at 0 chains A(0) at 5, tying with the external B at 5.
        e.scheduler().schedule(SimTime::ZERO, Ev::A(1));
        let external = [(0u64, Ev::B), (5, Ev::B), (12, Ev::A(0))];
        let end = e.run_merged(&mut w, external.map(|(t, ev)| (SimTime::from_nanos(t), ev)));
        assert_eq!(
            w.log,
            vec![
                (0, Ev::B),
                (0, Ev::A(1)),
                (5, Ev::B),
                (5, Ev::A(0)),
                (12, Ev::A(0)),
            ]
        );
        assert_eq!(end.as_nanos(), 12);
        let stats = e.stats();
        assert_eq!((stats.delivered, stats.scheduled), (5, 5));
        assert_eq!(stats.peak_pending, 1);
    }

    #[test]
    #[should_panic(expected = "external event stream went back in time")]
    fn run_merged_rejects_a_stream_going_back_in_time() {
        let mut w = Recorder::default();
        let mut e = Engine::new();
        let external = [(10u64, Ev::B), (9, Ev::B)];
        e.run_merged(&mut w, external.map(|(t, ev)| (SimTime::from_nanos(t), ev)));
    }

    #[test]
    fn determinism_same_program_same_log() {
        let run = || {
            let mut w = Recorder::default();
            let mut e = Engine::new();
            e.scheduler().schedule(SimTime::ZERO, Ev::A(10));
            e.scheduler().schedule(SimTime::from_nanos(3), Ev::B);
            e.run(&mut w);
            w.log
        };
        assert_eq!(run(), run());
    }

    /// 2^26 ns (~67 ms), the horizon of the time wheel the heap
    /// replaced. The two tests below keep it as a long gap to order
    /// across.
    const HORIZON: u64 = 67_108_864;

    #[test]
    fn far_future_events_overflow_and_return() {
        // Events up to ten horizons apart, interleaved with near ones,
        // come back in time order.
        let mut w = Recorder::default();
        let mut e = Engine::new();
        let times = [
            1u64,
            HORIZON / 2,
            HORIZON + 7,
            3 * HORIZON,
            10 * HORIZON + 13,
            2,
        ];
        // Payload 0 so the Recorder schedules no follow-up chains.
        for &t in &times {
            e.scheduler().schedule(SimTime::from_nanos(t), Ev::A(0));
        }
        e.run(&mut w);
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let got: Vec<u64> = w.log.iter().map(|(t, _)| *t).collect();
        assert_eq!(got, sorted);
    }

    #[test]
    fn equal_times_across_horizon_keep_fifo() {
        // Two events at one far instant: one scheduled two horizons
        // ahead of it, one scheduled close to it, after the clock has
        // walked most of the gap. FIFO order must hold between them.
        let mut w = Recorder::default();
        let mut e = Engine::new();
        let t_far = 2 * HORIZON + 5;
        e.scheduler().schedule(SimTime::from_nanos(t_far), Ev::A(0));
        // A chain of near events walks the clock forward past `HORIZON`,
        // then schedules another event at the same far instant.
        struct Walker {
            t_far: u64,
            log: Vec<(u64, Ev)>,
        }
        impl World for Walker {
            type Event = Ev;
            fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
                self.log.push((now.as_nanos(), ev));
                if let Ev::A(n) = ev {
                    if n > 0 {
                        sched.schedule_after(
                            now,
                            SimDuration::from_nanos(self.t_far / 8),
                            Ev::A(n - 1),
                        );
                    } else if now.as_nanos() < self.t_far {
                        sched.schedule(SimTime::from_nanos(self.t_far), Ev::B);
                    }
                }
            }
        }
        let mut walker = Walker {
            t_far,
            log: Vec::new(),
        };
        e.scheduler().schedule(SimTime::ZERO, Ev::A(6));
        e.run(&mut walker);
        w.log = walker.log;
        let at_far: Vec<Ev> = w
            .log
            .iter()
            .filter(|(t, _)| *t == t_far)
            .map(|(_, ev)| *ev)
            .collect();
        // A(0) was scheduled first (seq 0), B second — FIFO preserved.
        assert_eq!(at_far, vec![Ev::A(0), Ev::B]);
    }

    #[test]
    fn slab_slots_are_reused_without_aliasing() {
        // Schedule/deliver in waves; pending() and payload integrity prove
        // freed slots never alias live events.
        #[derive(Default)]
        struct Echo {
            got: Vec<u64>,
        }
        impl World for Echo {
            type Event = u64;
            fn handle(&mut self, _now: SimTime, ev: u64, _s: &mut Scheduler<u64>) {
                self.got.push(ev);
            }
        }
        let mut w = Echo::default();
        let mut e = Engine::new();
        for wave in 0u64..50 {
            for i in 0u64..20 {
                let t = wave * 1000 + i;
                e.scheduler().schedule(SimTime::from_nanos(t), t);
            }
            e.run(&mut w);
            assert_eq!(e.scheduler().pending(), 0);
        }
        assert_eq!(w.got.len(), 1000);
        for (i, &v) in w.got.iter().enumerate() {
            assert_eq!(v, (i as u64 / 20) * 1000 + (i as u64 % 20));
        }
    }
}
