//! Reproduces the **§5.1 analysis**: penetration probability, optimal
//! hash count, and the capacity bounds — closed-form (Equations 2–6)
//! plus a Monte-Carlo validation against a real bitmap.

use upbound_analyzer::ActiveConnectionCounter;
use upbound_bench::{trace_from_args, TextTable};
use upbound_core::params::{
    exact_false_positive, max_connections, optimal_hash_count, penetration_probability,
};
use upbound_core::AtomicBitmap;
use upbound_net::TimeDelta;

fn main() {
    const N_BITS: u32 = 20;
    const N: usize = 1 << N_BITS;

    println!("Section 5.1 analysis for N = 2^20, k = 4, dt = 5 s (T_e = 20 s)\n");

    // Measure the trace's active connections per T_e window, the paper's
    // sizing input ("average 15K active connections inside a time unit
    // of 20 seconds").
    let trace = trace_from_args();
    let mut counter = ActiveConnectionCounter::new(TimeDelta::from_secs(20.0));
    for lp in &trace.packets {
        counter.observe(&lp.packet);
    }
    let active = counter.finish();
    println!(
        "measured active connections per 20-s window: mean {:.0}, max {:.0}\n         (paper's trace: average ~15K; both sit far below the capacity bounds below)\n",
        active.mean(),
        active.max()
    );

    // Capacity bounds (Eq. 6). Paper: 167K / 125K / 83K.
    let mut table = TextTable::new([
        "Penetration target p",
        "Max connections c (measured)",
        "Paper",
    ]);
    for (p, paper) in [(0.10, "167K"), (0.05, "125K"), (0.01, "83K")] {
        table.row([
            format!("{:.0}%", p * 100.0),
            format!("{:.0}K", max_connections(p, N) / 1000.0),
            paper.to_owned(),
        ]);
    }
    println!("{}", table.render());

    // Optimal m (Eq. 5) at the sized capacity: paper deploys m = 3.
    let c_sized = max_connections(0.05, N);
    println!(
        "optimal m at c = {:.0}K:  m* = {:.2}  (paper deploys m = 3)",
        c_sized / 1000.0,
        optimal_hash_count(c_sized, N)
    );
    println!(
        "memory: (k x N)/8 = {} KiB  (paper: 512K bytes)\n",
        4 * N / 8 / 1024
    );

    // Penetration probability: approximation vs exact vs Monte-Carlo.
    println!("Penetration probability for a {{4 x 2^20}} bitmap, m = 3:");
    let mut mc_table = TextTable::new([
        "active connections c",
        "Eq. 3 approx",
        "exact Bloom",
        "Monte-Carlo",
    ]);
    for c in [15_000usize, 50_000, 125_000, 250_000] {
        let approx = penetration_probability(c as f64, N, 3);
        let exact = exact_false_positive(c as f64, N, 3);
        // Monte-Carlo: insert c distinct keys, probe 20 000 disjoint keys.
        let bitmap = AtomicBitmap::new(4, N_BITS, 3);
        for i in 0..c as u64 {
            bitmap.mark(&i.to_le_bytes());
        }
        let probes = 20_000u64;
        let hits = (0..probes)
            .filter(|i| bitmap.lookup(&(i + 1_000_000_000).to_le_bytes()))
            .count();
        let mc = hits as f64 / probes as f64;
        mc_table.row([
            format!("{c}"),
            format!("{approx:.5}"),
            format!("{exact:.5}"),
            format!("{mc:.5}"),
        ]);
    }
    println!("{}", mc_table.render());
    println!(
        "The paper's trace averaged ~15K active connections per T_e window —\n\
         far below every capacity bound above, so false positives are negligible\n\
         at 512 KiB of state."
    );
}
