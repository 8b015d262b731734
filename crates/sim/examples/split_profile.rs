//! Quick split-phase profile: the `wave_phase_breakdown` measurement from
//! `bench_e8_simulation` as a standalone binary, for fast iteration on the
//! split-phase hot path without running the whole Criterion suite.
//!
//! ```sh
//! cargo run --release -p popproto-sim --example split_profile
//! ```

use popproto_model::Input;
use popproto_sim::EnsembleSimulator;
use popproto_zoo::approximate_majority;

fn main() {
    let p = approximate_majority();
    let n = 1_000_000u64;
    let k = 256usize;
    let input = Input::from_counts(vec![n / 2 + n / 20, n - n / 2 - n / 20]);
    let ic = p.initial_config(&input);
    let seeds: Vec<u64> = (0..k as u64).collect();
    let mut ens = EnsembleSimulator::new(p.clone(), ic, &seeds);
    ens.advance_uniform(n / 10);
    ens.reset_phase_breakdown();
    ens.advance_uniform(2 * n);
    let ph = ens.phase_breakdown();
    let total = ph.total_ns().max(1) as f64;
    println!(
        "waves {} total {:.1}ms | split {:.1}ms ({:.1}%) pairing {:.1}ms ({:.1}%) \
         class {:.1}ms coll {:.1}ms",
        ph.waves,
        total / 1e6,
        ph.split_ns as f64 / 1e6,
        100.0 * ph.split_share(),
        ph.pairing_ns as f64 / 1e6,
        100.0 * ph.pairing_share(),
        ph.classification_ns as f64 / 1e6,
        ph.collision_ns as f64 / 1e6,
    );
    println!(
        "split speedup vs committed baseline 436684483 ns: {:.2}x",
        436_684_483.0 / ph.split_ns.max(1) as f64
    );
}
