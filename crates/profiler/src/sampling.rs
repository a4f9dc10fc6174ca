//! Statistical sampling support for [`crate::SlotStore`], the store
//! behind both [`crate::Counters`] and the VM's block counters: a
//! *current-position beacon* plus a sampler that turns periodic reads of it
//! into estimated hit counts.
//!
//! Exact counters pay one counter update per profiled event; always-on
//! production profiling cannot afford that (E7: 1.45× interp overhead
//! even dense). The sampling backend inverts the cost model the way the
//! systems-PGO world did (AutoFDO lineage): the *mutator* only publishes
//! where it is — one relaxed atomic store per profile-point entry — and a
//! decoupled sampler thread ticking at `hz` reads the beacon and
//! accumulates tallies into an [`AtomicSlotArray`]. Estimated counts live
//! in the same slot space as exact ones, so weight normalization (§3 of
//! the paper: weights are `count / max_count`, exactness never required),
//! §3.2 merging, deltas, and the v2 store all work unchanged.
//!
//! # Beacon encoding
//!
//! The beacon is a single `AtomicU64`:
//!
//! - `0` — *idle*: no profiled code is running (run exited, or a blocking
//!   native parked the beacon). Ticks that land here count as `missed`
//!   and attribute nothing.
//! - otherwise — `slot + 1`: the dense slot currently executing, biased
//!   by one so slot 0 is distinguishable from idle. The shared state is
//!   private to one store, so the slot needs no publisher identity.
//!
//! All beacon accesses are `Relaxed`: a torn or stale read costs at most
//! one misattributed sample, which the estimator model absorbs (see
//! DESIGN.md §4h).

use crate::AtomicSlotArray;
use pgmp_observe::{emit, metrics, EventKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default sampler rate for `--counter-impl sampling`. Prime, so periodic
/// workloads do not resonate with the tick train.
pub const DEFAULT_SAMPLE_HZ: u32 = 997;

/// Consecutive idle ticks (beacon = 0) before the sampler halves its
/// rate. At the default 997 Hz the first backoff lands after ~64 ms of
/// idleness — long enough that GC pauses and slow-path waits inside an
/// active run never trigger it.
const IDLE_BACKOFF_TICKS: u64 = 64;

/// Maximum number of rate halvings: the period never exceeds 32× the
/// configured one, so an idle fleet member still ticks (and can notice
/// resumed activity) within ~32 ms at the default rate.
const MAX_BACKOFF_SHIFT: u32 = 5;

/// State shared between one profiled registry (the publisher) and its
/// sampler (the consumer). `Send + Sync`; the registry handle itself
/// stays single-threaded.
#[derive(Debug, Default)]
pub struct SamplingShared {
    /// Current-position beacon (see module docs for the encoding).
    beacon: AtomicU64,
    /// Estimated per-slot hit tallies, one sample = one hit.
    tallies: AtomicSlotArray,
    /// Total sampler ticks taken.
    ticks: AtomicU64,
    /// Ticks that found a published position and tallied it.
    hits: AtomicU64,
    /// Ticks that found the beacon idle (beacon = 0).
    missed: AtomicU64,
    /// Tells the sampler thread to exit.
    stop: AtomicBool,
}

impl SamplingShared {
    /// Fresh shared state: idle beacon, empty tallies.
    pub fn new() -> SamplingShared {
        SamplingShared::default()
    }

    /// Publishes the current position: one relaxed store, the entire
    /// per-event cost of the sampling backend.
    #[inline]
    pub fn publish(&self, slot: u32) {
        self.beacon.store(slot as u64 + 1, Ordering::Relaxed);
    }

    /// Clears the published position so samples taken while the publisher
    /// is idle (run exited, blocking native, slow-path wait) attribute
    /// nothing instead of inflating the last-seen point.
    #[inline]
    pub fn park(&self) {
        self.beacon.store(0, Ordering::Relaxed);
    }

    /// Takes one sample: reads the beacon and tallies the published slot,
    /// if any. This is the sampler thread's tick body, exposed so tests
    /// and benchmarks can drive sampling deterministically (no thread, no
    /// wall clock). Returns whether the tick found a published position —
    /// the auto-rate policy's input signal.
    pub fn sample_now(&self) -> bool {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        let biased = self.beacon.load(Ordering::Relaxed);
        if biased == 0 {
            self.missed.fetch_add(1, Ordering::Relaxed);
            false
        } else {
            self.tallies.add((biased - 1) as u32, 1);
            self.hits.fetch_add(1, Ordering::Relaxed);
            true
        }
    }

    /// The estimated tallies (sample counts per slot).
    pub fn tallies(&self) -> &AtomicSlotArray {
        &self.tallies
    }

    /// `(ticks, hits, missed)` so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.ticks.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
            self.missed.load(Ordering::Relaxed),
        )
    }

    /// Publishes sampler totals into the metrics registry
    /// (`profiler.sample_ticks` / `sample_hits` / `sample_missed`).
    /// Called at boundaries only — run exit, sampler shutdown — never on
    /// the tick path.
    pub fn publish_metrics(&self) {
        let (ticks, hits, missed) = self.stats();
        let m = metrics();
        m.gauge_set("profiler.sample_ticks", ticks as f64);
        m.gauge_set("profiler.sample_hits", hits as f64);
        m.gauge_set("profiler.sample_missed", missed as f64);
    }
}

/// The sampler's auto-rate policy: a deterministic state machine fed one
/// tick outcome at a time, kept separate from the thread so tests can
/// drive it without a wall clock.
///
/// The rules:
///
/// - [`IDLE_BACKOFF_TICKS`] *consecutive* idle ticks halve the rate
///   (double the period), down to `base_hz >> MAX_BACKOFF_SHIFT`.
/// - Any hit re-arms the full configured rate immediately — the very
///   next tick is already at `base_hz`, so resumed activity pays at most
///   one backed-off period (~32 ms at the default rate) of coarse
///   sampling, not a slow climb back.
///
/// This keeps an idle fleet member (publisher parked between runs, a
/// daemon-attached process waiting on input) from burning a CPU timer
/// 997 times a second for nothing, without biasing estimates: idle ticks
/// attribute no hits, so dropping most of them changes only the `missed`
/// tally, never the per-slot ratios that become weights.
#[derive(Debug)]
struct AutoRate {
    base_hz: u32,
    /// Current backoff exponent: period = base period × 2^shift.
    shift: u32,
    /// Consecutive idle ticks since the last hit or backoff step.
    idle_streak: u64,
}

impl AutoRate {
    fn new(base_hz: u32) -> AutoRate {
        AutoRate {
            base_hz,
            shift: 0,
            idle_streak: 0,
        }
    }

    /// The current tick period, given the configured base period.
    fn period(&self, base: Duration) -> Duration {
        base * (1u32 << self.shift)
    }

    /// The rate currently in effect, in ticks per second.
    fn effective_hz(&self) -> u32 {
        (self.base_hz >> self.shift).max(1)
    }

    /// Feeds one tick outcome. Returns `Some(new_hz)` when the effective
    /// rate changed — the only moments the thread touches the metrics
    /// registry.
    fn on_tick(&mut self, hit: bool) -> Option<u32> {
        if hit {
            self.idle_streak = 0;
            if self.shift != 0 {
                self.shift = 0;
                return Some(self.effective_hz());
            }
            None
        } else {
            self.idle_streak += 1;
            if self.idle_streak >= IDLE_BACKOFF_TICKS && self.shift < MAX_BACKOFF_SHIFT {
                self.idle_streak = 0;
                self.shift += 1;
                return Some(self.effective_hz());
            }
            None
        }
    }
}

/// A wall-clock sampler thread ticking a [`SamplingShared`], starting at
/// a configured rate and backing off while the beacon stays idle (see
/// `AutoRate`). Stops (and joins) on drop, publishing final metrics and
/// one summary [`EventKind::SamplerTick`] event — the tick path itself
/// never touches the event bus, and touches the metrics registry only on
/// the (bounded, rare) rate transitions, exposed as the gauge
/// `profiler.sample_rate_hz`.
#[derive(Debug)]
pub struct Sampler {
    shared: Arc<SamplingShared>,
    hz: u32,
    /// Rate currently in effect, mirrored out of the thread for
    /// [`Sampler::effective_hz`].
    effective: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Spawns the sampler thread at `hz` ticks per second (clamped to at
    /// least 1). `hz` is the *ceiling*: the thread backs off while the
    /// beacon stays idle and re-arms the full rate on the first hit.
    pub fn spawn(shared: Arc<SamplingShared>, hz: u32) -> Sampler {
        let hz = hz.max(1);
        let base = Duration::from_nanos(1_000_000_000 / hz as u64);
        let effective = Arc::new(AtomicU64::new(hz as u64));
        let worker = shared.clone();
        let mirror = effective.clone();
        let handle = std::thread::Builder::new()
            .name("pgmp-sampler".into())
            .spawn(move || {
                let mut rate = AutoRate::new(hz);
                metrics().gauge_set("profiler.sample_rate_hz", hz as f64);
                while !worker.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(rate.period(base));
                    let hit = worker.sample_now();
                    if let Some(new_hz) = rate.on_tick(hit) {
                        mirror.store(new_hz as u64, Ordering::Relaxed);
                        metrics().gauge_set("profiler.sample_rate_hz", new_hz as f64);
                    }
                }
            })
            .expect("failed to spawn pgmp-sampler thread");
        Sampler {
            shared,
            hz,
            effective,
            handle: Some(handle),
        }
    }

    /// The configured (ceiling) tick rate.
    pub fn hz(&self) -> u32 {
        self.hz
    }

    /// The rate currently in effect — `hz()` under load, lower while the
    /// beacon has been idle long enough to back off.
    pub fn effective_hz(&self) -> u32 {
        self.effective.load(Ordering::Relaxed) as u32
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.shared.publish_metrics();
        let (ticks, hits, missed) = self.shared.stats();
        emit(EventKind::SamplerTick {
            hz: self.hz,
            ticks,
            hits,
            missed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_beacon_counts_as_missed() {
        let s = SamplingShared::new();
        s.sample_now();
        assert_eq!(s.stats(), (1, 0, 1));
        assert_eq!(s.tallies().get(0), 0);
    }

    #[test]
    fn published_slot_zero_is_distinguishable_from_idle() {
        let s = SamplingShared::new();
        s.publish(0);
        s.sample_now();
        assert_eq!(s.stats(), (1, 1, 0));
        assert_eq!(s.tallies().get(0), 1);
    }

    #[test]
    fn park_clears_the_position() {
        let s = SamplingShared::new();
        s.publish(3);
        s.sample_now();
        s.park();
        s.sample_now();
        assert_eq!(s.stats(), (2, 1, 1));
        assert_eq!(s.tallies().get(3), 1);
    }

    #[test]
    fn auto_rate_backs_off_after_sustained_idle() {
        let mut rate = AutoRate::new(1000);
        assert_eq!(rate.effective_hz(), 1000);
        // One short of the threshold: no change yet.
        for _ in 0..IDLE_BACKOFF_TICKS - 1 {
            assert_eq!(rate.on_tick(false), None);
        }
        // The threshold tick halves the rate...
        assert_eq!(rate.on_tick(false), Some(500));
        // ...and the streak restarts, so the next halving needs a full
        // window again.
        for _ in 0..IDLE_BACKOFF_TICKS - 1 {
            assert_eq!(rate.on_tick(false), None);
        }
        assert_eq!(rate.on_tick(false), Some(250));
    }

    #[test]
    fn auto_rate_caps_at_max_shift() {
        let mut rate = AutoRate::new(1000);
        for _ in 0..IDLE_BACKOFF_TICKS * (MAX_BACKOFF_SHIFT as u64 + 10) {
            rate.on_tick(false);
        }
        assert_eq!(rate.effective_hz(), 1000 >> MAX_BACKOFF_SHIFT);
        let base = Duration::from_micros(1000);
        assert_eq!(rate.period(base), base * (1 << MAX_BACKOFF_SHIFT));
    }

    #[test]
    fn auto_rate_rearms_instantly_on_hit() {
        let mut rate = AutoRate::new(1000);
        for _ in 0..IDLE_BACKOFF_TICKS * 3 {
            rate.on_tick(false);
        }
        assert!(rate.effective_hz() < 1000, "should have backed off");
        // A single hit restores the full rate in one step.
        assert_eq!(rate.on_tick(false), None);
        assert_eq!(rate.on_tick(true), Some(1000));
        assert_eq!(rate.effective_hz(), 1000);
        // And a hit at full rate reports no change.
        assert_eq!(rate.on_tick(true), None);
    }

    #[test]
    fn auto_rate_hit_resets_the_idle_streak() {
        let mut rate = AutoRate::new(1000);
        // Hits interleaved more often than the backoff window keep the
        // rate pinned at the ceiling forever.
        for _ in 0..10 {
            for _ in 0..IDLE_BACKOFF_TICKS - 1 {
                assert_eq!(rate.on_tick(false), None);
            }
            assert_eq!(rate.on_tick(true), None);
        }
        assert_eq!(rate.effective_hz(), 1000);
    }

    #[test]
    fn auto_rate_floor_is_one_hz() {
        let mut rate = AutoRate::new(1);
        for _ in 0..IDLE_BACKOFF_TICKS * (MAX_BACKOFF_SHIFT as u64 + 1) {
            rate.on_tick(false);
        }
        assert_eq!(rate.effective_hz(), 1);
    }

    #[test]
    fn sampler_thread_backs_off_when_idle_and_recovers() {
        let shared = Arc::new(SamplingShared::new());
        // Idle beacon at a high tick rate: the backoff window elapses in
        // well under a second.
        let sampler = Sampler::spawn(shared.clone(), 50_000);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while sampler.effective_hz() == 50_000 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            sampler.effective_hz() < 50_000,
            "sampler never backed off while idle"
        );
        // Publish a position: the next tick hits and re-arms the rate.
        shared.publish(2);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while sampler.effective_hz() != 50_000 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            sampler.effective_hz(),
            50_000,
            "sampler never re-armed after activity resumed"
        );
    }

    #[test]
    fn sampler_thread_ticks_and_stops() {
        let shared = Arc::new(SamplingShared::new());
        shared.publish(5);
        let sampler = Sampler::spawn(shared.clone(), 10_000);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while shared.stats().0 == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(sampler);
        let (ticks, hits, _) = shared.stats();
        assert!(ticks > 0, "sampler never ticked");
        assert_eq!(hits, ticks, "every tick saw the published beacon");
        assert_eq!(shared.tallies().get(5), hits);
    }
}
