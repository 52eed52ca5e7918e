//! Deterministic storage fault injection.
//!
//! A [`FaultPlan`] attaches to a [`crate::Disk`] and decides, per read
//! request, whether to inject a failure: a hard read error, a short read
//! (only a prefix of the requested pages arrives), a latency spike, or
//! detectable corruption (the device reports success but the consumer's
//! integrity check must treat the data as unusable). Decisions come from
//! two sources, in order:
//!
//! 1. **Rules** — targeted, finite schedules ("fail the first two loader
//!    prefetches of file 3 at pages 0..128"). Each rule carries a `times`
//!    budget and is consulted in order; the first live match fires.
//! 2. **Profile** — seeded background probabilities per fault kind, capped
//!    by `max_injections` so a probabilistic plan can never starve a
//!    bounded-retry consumer forever.
//!
//! The plan owns its own [`Prng`] stream, separate from the device's
//! latency-jitter stream: attaching a plan must not perturb the timing of
//! requests it chooses not to touch, and a no-plan device draws nothing.
//! Every injection is appended to a log; [`FaultPlan::schedule`] renders
//! it as a stable text artifact so tests can assert that the same seed
//! produces the same fault schedule byte-for-byte.

use sim_core::rng::Prng;
use sim_core::time::{SimDuration, SimTime};

use crate::device::{IoKind, IoRequest};
use crate::file::FileId;

/// The ways an injected read can go wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFaultKind {
    /// The read fails outright; no data arrives.
    ReadError,
    /// Only the first `served_pages` of the request arrive.
    ShortRead,
    /// The read succeeds but completes late by `extra_latency`.
    LatencySpike,
    /// The read "succeeds" but the payload fails its integrity check;
    /// consumers must discard it exactly as if the read had failed.
    Corruption,
}

impl InjectedFaultKind {
    /// Stable lowercase label for logs and metrics.
    pub fn label(self) -> &'static str {
        match self {
            InjectedFaultKind::ReadError => "read_error",
            InjectedFaultKind::ShortRead => "short_read",
            InjectedFaultKind::LatencySpike => "latency_spike",
            InjectedFaultKind::Corruption => "corruption",
        }
    }
}

/// The outcome of a fault decision for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// What kind of failure was injected.
    pub kind: InjectedFaultKind,
    /// Pages actually delivered (`< req.pages` for short reads, `0` for
    /// read errors and corruption, `req.pages` for latency spikes).
    pub served_pages: u64,
    /// Extra completion delay (nonzero only for latency spikes).
    pub extra_latency: SimDuration,
}

/// A targeted, finite injection rule.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Restrict to one file, or `None` for any file.
    pub file: Option<FileId>,
    /// Restrict to one accounting tag, or `None` for any read kind.
    pub kind: Option<IoKind>,
    /// Restrict to requests overlapping `[start, end)` file pages.
    pub pages: Option<(u64, u64)>,
    /// What to inject when the rule fires.
    pub fault: InjectedFaultKind,
    /// Remaining firings; the rule is dead at zero.
    pub times: u64,
}

impl FaultRule {
    /// A rule matching every read, `times` times.
    pub fn any(fault: InjectedFaultKind, times: u64) -> Self {
        FaultRule {
            file: None,
            kind: None,
            pages: None,
            fault,
            times,
        }
    }

    /// A rule matching reads of one file, `times` times.
    pub fn on_file(file: FileId, fault: InjectedFaultKind, times: u64) -> Self {
        FaultRule {
            file: Some(file),
            kind: None,
            pages: None,
            fault,
            times,
        }
    }

    /// A rule matching one accounting tag, `times` times.
    pub fn on_kind(kind: IoKind, fault: InjectedFaultKind, times: u64) -> Self {
        FaultRule {
            file: None,
            kind: Some(kind),
            pages: None,
            fault,
            times,
        }
    }

    fn matches(&self, req: &IoRequest) -> bool {
        if self.times == 0 {
            return false;
        }
        if let Some(f) = self.file {
            if f != req.file {
                return false;
            }
        }
        if let Some(k) = self.kind {
            if k != req.kind {
                return false;
            }
        }
        if let Some((start, end)) = self.pages {
            if req.page >= end || req.page + req.pages <= start {
                return false;
            }
        }
        true
    }
}

/// Background (probabilistic) injection rates.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultProfile {
    /// Per-read probability of a hard read error.
    pub read_error_prob: f64,
    /// Per-read probability of a short read (multi-page reads only).
    pub short_read_prob: f64,
    /// Per-read probability of a latency spike.
    pub latency_spike_prob: f64,
    /// Per-read probability of detectable corruption.
    pub corruption_prob: f64,
    /// Added latency when a spike fires.
    pub spike: SimDuration,
    /// Hard cap on total probabilistic injections; targeted rules are
    /// bounded by their own `times` budgets and do not count against this.
    pub max_injections: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            read_error_prob: 0.0,
            short_read_prob: 0.0,
            latency_spike_prob: 0.0,
            corruption_prob: 0.0,
            spike: SimDuration::from_micros(500),
            max_injections: u64::MAX,
        }
    }
}

impl FaultProfile {
    fn is_quiet(&self) -> bool {
        self.read_error_prob <= 0.0
            && self.short_read_prob <= 0.0
            && self.latency_spike_prob <= 0.0
            && self.corruption_prob <= 0.0
    }
}

/// One injected fault, as recorded in the plan's log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Submission instant of the afflicted request.
    pub at: SimTime,
    /// Target file.
    pub file: FileId,
    /// First file page of the request.
    pub page: u64,
    /// Requested page count.
    pub pages: u64,
    /// Accounting tag of the request.
    pub io_kind: IoKind,
    /// What was injected.
    pub fault: InjectedFaultKind,
    /// Pages actually delivered.
    pub served_pages: u64,
}

/// A seeded, deterministic fault schedule for one device.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    profile: FaultProfile,
    rules: Vec<FaultRule>,
    rng: Prng,
    injected_by_profile: u64,
    log: Vec<FaultRecord>,
}

impl FaultPlan {
    /// An empty plan (no rules, quiet profile) with its own rng stream.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            profile: FaultProfile::default(),
            rules: Vec::new(),
            rng: Prng::new(seed ^ 0xFA17_1A17_0000_5EED),
            injected_by_profile: 0,
            log: Vec::new(),
        }
    }

    /// A plan with background probabilities from `profile`.
    pub fn with_profile(seed: u64, profile: FaultProfile) -> Self {
        let mut plan = FaultPlan::new(seed);
        plan.profile = profile;
        plan
    }

    /// Appends a targeted rule; rules fire in insertion order.
    pub fn push_rule(&mut self, rule: FaultRule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Total injections so far (rules and profile).
    pub fn injected(&self) -> u64 {
        self.log.len() as u64
    }

    /// The full injection log.
    pub fn log(&self) -> &[FaultRecord] {
        &self.log
    }

    /// True if every rule is exhausted and the profile is quiet — no
    /// further injections can occur.
    pub fn is_exhausted(&self) -> bool {
        self.rules.iter().all(|r| r.times == 0)
            && (self.profile.is_quiet() || self.injected_by_profile >= self.profile.max_injections)
    }

    /// Renders the injection log as a stable line-per-fault artifact so
    /// differential tests can byte-compare schedules across runs.
    pub fn schedule(&self) -> String {
        let mut out = String::new();
        for r in &self.log {
            out.push_str(&format!(
                "{} file={} page={} pages={} io={:?} fault={} served={}\n",
                r.at.as_nanos(),
                r.file.0,
                r.page,
                r.pages,
                r.io_kind,
                r.fault.label(),
                r.served_pages,
            ));
        }
        out
    }

    /// Decides whether to injure the request submitted at `now`.
    ///
    /// Writes are never injured (snapshot write-out errors are a different
    /// failure domain, out of scope here). The decision and the rng draws
    /// behind it live entirely on the plan's private stream.
    pub fn decide(&mut self, now: SimTime, req: &IoRequest) -> Option<InjectedFault> {
        if req.kind == IoKind::SnapshotWrite {
            return None;
        }
        let fault = self
            .decide_kind(req)
            .map(|kind| self.materialize(kind, req));
        if let Some(f) = fault {
            self.log.push(FaultRecord {
                at: now,
                file: req.file,
                page: req.page,
                pages: req.pages,
                io_kind: req.kind,
                fault: f.kind,
                served_pages: f.served_pages,
            });
        }
        fault
    }

    fn decide_kind(&mut self, req: &IoRequest) -> Option<InjectedFaultKind> {
        for rule in &mut self.rules {
            if rule.matches(req) {
                rule.times -= 1;
                return Some(rule.fault);
            }
        }
        if self.profile.is_quiet() || self.injected_by_profile >= self.profile.max_injections {
            return None;
        }
        // One draw per fault class, in a fixed order, so the schedule is a
        // pure function of (seed, request sequence).
        let kind = if self.rng.chance(self.profile.read_error_prob) {
            Some(InjectedFaultKind::ReadError)
        } else if self.rng.chance(self.profile.corruption_prob) {
            Some(InjectedFaultKind::Corruption)
        } else if req.pages > 1 && self.rng.chance(self.profile.short_read_prob) {
            Some(InjectedFaultKind::ShortRead)
        } else if self.rng.chance(self.profile.latency_spike_prob) {
            Some(InjectedFaultKind::LatencySpike)
        } else {
            None
        };
        if kind.is_some() {
            self.injected_by_profile += 1;
        }
        kind
    }

    fn materialize(&mut self, kind: InjectedFaultKind, req: &IoRequest) -> InjectedFault {
        match kind {
            InjectedFaultKind::ReadError | InjectedFaultKind::Corruption => InjectedFault {
                kind,
                served_pages: 0,
                extra_latency: SimDuration::ZERO,
            },
            InjectedFaultKind::ShortRead => {
                // Serve a non-empty strict prefix; single-page requests
                // cannot be short, so degrade them to a hard error.
                if req.pages <= 1 {
                    InjectedFault {
                        kind: InjectedFaultKind::ReadError,
                        served_pages: 0,
                        extra_latency: SimDuration::ZERO,
                    }
                } else {
                    InjectedFault {
                        kind,
                        served_pages: self.rng.range(1, req.pages - 1),
                        extra_latency: SimDuration::ZERO,
                    }
                }
            }
            InjectedFaultKind::LatencySpike => InjectedFault {
                kind,
                served_pages: req.pages,
                extra_latency: self.profile.spike,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(file: u64, page: u64, pages: u64, kind: IoKind) -> IoRequest {
        IoRequest {
            file: FileId(file),
            page,
            pages,
            kind,
        }
    }

    #[test]
    fn empty_plan_never_fires() {
        let mut plan = FaultPlan::new(1);
        for i in 0..1000 {
            assert!(plan
                .decide(SimTime::ZERO, &read(0, i, 4, IoKind::FaultRead))
                .is_none());
        }
        assert_eq!(plan.injected(), 0);
        assert!(plan.is_exhausted());
    }

    #[test]
    fn rule_fires_times_then_dies() {
        let mut plan = FaultPlan::new(1);
        plan.push_rule(FaultRule::on_kind(
            IoKind::LoaderPrefetch,
            InjectedFaultKind::ReadError,
            2,
        ));
        let r = read(3, 0, 8, IoKind::LoaderPrefetch);
        assert!(plan.decide(SimTime::ZERO, &r).is_some());
        assert!(plan.decide(SimTime::ZERO, &r).is_some());
        assert!(plan.decide(SimTime::ZERO, &r).is_none());
        // Unmatched kind never fires.
        assert!(plan
            .decide(SimTime::ZERO, &read(3, 0, 8, IoKind::FaultRead))
            .is_none());
        assert!(plan.is_exhausted());
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn rule_filters_by_file_and_pages() {
        let mut plan = FaultPlan::new(1);
        plan.push_rule(FaultRule {
            file: Some(FileId(7)),
            kind: None,
            pages: Some((100, 200)),
            fault: InjectedFaultKind::ReadError,
            times: u64::MAX,
        });
        assert!(plan
            .decide(SimTime::ZERO, &read(7, 150, 4, IoKind::FaultRead))
            .is_some());
        // Overlap at the boundary counts.
        assert!(plan
            .decide(SimTime::ZERO, &read(7, 96, 8, IoKind::FaultRead))
            .is_some());
        // Outside the window or on another file does not.
        assert!(plan
            .decide(SimTime::ZERO, &read(7, 200, 4, IoKind::FaultRead))
            .is_none());
        assert!(plan
            .decide(SimTime::ZERO, &read(8, 150, 4, IoKind::FaultRead))
            .is_none());
    }

    #[test]
    fn writes_are_never_injured() {
        let mut plan = FaultPlan::new(1);
        plan.push_rule(FaultRule::any(InjectedFaultKind::ReadError, u64::MAX));
        assert!(plan
            .decide(SimTime::ZERO, &read(0, 0, 64, IoKind::SnapshotWrite))
            .is_none());
    }

    #[test]
    fn short_read_serves_nonempty_strict_prefix() {
        let mut plan = FaultPlan::new(42);
        plan.push_rule(FaultRule::any(InjectedFaultKind::ShortRead, u64::MAX));
        for i in 0..200 {
            let f = plan
                .decide(SimTime::ZERO, &read(0, i * 16, 16, IoKind::LoaderPrefetch))
                .unwrap();
            assert_eq!(f.kind, InjectedFaultKind::ShortRead);
            assert!(f.served_pages >= 1 && f.served_pages < 16);
        }
        // A single-page request degrades to a hard error.
        let f = plan
            .decide(SimTime::ZERO, &read(0, 0, 1, IoKind::FaultRead))
            .unwrap();
        assert_eq!(f.kind, InjectedFaultKind::ReadError);
    }

    #[test]
    fn profile_respects_max_injections() {
        let mut plan = FaultPlan::with_profile(
            9,
            FaultProfile {
                read_error_prob: 1.0,
                max_injections: 3,
                ..FaultProfile::default()
            },
        );
        let hits = (0..100)
            .filter(|&i| {
                plan.decide(SimTime::ZERO, &read(0, i, 2, IoKind::FaultRead))
                    .is_some()
            })
            .count();
        assert_eq!(hits, 3);
        assert!(plan.is_exhausted());
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::with_profile(
                seed,
                FaultProfile {
                    read_error_prob: 0.1,
                    short_read_prob: 0.1,
                    latency_spike_prob: 0.1,
                    ..FaultProfile::default()
                },
            );
            for i in 0..500 {
                plan.decide(
                    SimTime::from_nanos(i * 10),
                    &read(i % 3, i * 4, 8, IoKind::FaultRead),
                );
            }
            plan.schedule()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        assert!(!run(5).is_empty());
    }

    #[test]
    fn latency_spike_carries_profile_spike() {
        let mut plan = FaultPlan::with_profile(
            1,
            FaultProfile {
                latency_spike_prob: 1.0,
                spike: SimDuration::from_millis(2),
                ..FaultProfile::default()
            },
        );
        let f = plan
            .decide(SimTime::ZERO, &read(0, 0, 4, IoKind::FaultRead))
            .unwrap();
        assert_eq!(f.kind, InjectedFaultKind::LatencySpike);
        assert_eq!(f.extra_latency, SimDuration::from_millis(2));
        assert_eq!(f.served_pages, 4);
    }
}
