//! Times storing and loading v2 profile files (experiment E22).
//!
//! The profiles are synthetic but shaped like the benchmark's stored
//! profiles: a slot table of 1,156 points (as `oo-calls` stores) or 4,550
//! (as `many-forms` stores), nearly all in one source file, with
//! full-precision weights and a few weightless slots. Each time is the
//! best of [`RUNS`] runs. Every loaded profile is checked against the one
//! stored.
//!
//! ```sh
//! cargo run --release -p pgmp-bench --bin e22_profile_io
//! ```

use pgmp_profiler::{ProfileInformation, SlotMap, StoredProfile};
use pgmp_syntax::SourceObject;
use std::time::Instant;

const RUNS: usize = 30;

fn profile(points: u32) -> StoredProfile {
    let table: Vec<SourceObject> = (0..points)
        .map(|i| {
            let file = if i % 97 == 5 { "case.scm" } else { "prog.scm" };
            SourceObject::new(file, 7 * i, 7 * i + 1 + i % 30)
        })
        .collect();
    let weights = table
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 13 != 0)
        .map(|(i, p)| (*p, ((i * 7919) % 1000 + 1) as f64 / 1173.0));
    let info = ProfileInformation::from_weights(weights, 1);
    StoredProfile::v2(info, Some(SlotMap::from_points(table).expect("distinct")))
}

/// The best of [`RUNS`] timings of `f`, in milliseconds.
fn best<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    println!("E22 — storing and loading v2 profile files (best of {RUNS})");
    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "points", "bytes", "store ms", "load ms"
    );
    for points in [1_156, 4_550] {
        let sp = profile(points);
        let text = sp.store_to_string();
        let back = StoredProfile::load_from_str(&text).expect("a stored profile loads");
        assert_eq!(back.info, sp.info, "weights survive the round trip");
        assert_eq!(
            back.slots.as_ref().map(|s| s.points().to_vec()),
            sp.slots.as_ref().map(|s| s.points().to_vec()),
            "the slot table survives the round trip"
        );
        let store = best(|| sp.store_to_string());
        let load = best(|| StoredProfile::load_from_str(&text));
        println!("{points:>8} {:>10} {store:>10.3} {load:>10.3}", text.len());
    }
}
