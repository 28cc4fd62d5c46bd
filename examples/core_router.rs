//! Core-router scenario (paper Figure 6): one aggregation point serving
//! two client networks, each with its own bitmap filter, policies, and
//! statistics — plus the sharded edge dataplane on one of them.
//!
//! Run with: `cargo run --release --example core_router`

use upbound::core::{BitmapFilterConfig, DropPolicy, SubscriberTable, Verdict};
use upbound::net::{BufferedSource, Cidr};
use upbound::sim::{PipelineRunner, ServeControl};
use upbound::traffic::{generate, TraceConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net_a: Cidr = "10.1.0.0/16".parse()?;
    let net_b: Cidr = "10.2.0.0/16".parse()?;

    // Two client networks with different service levels: network A gets
    // a generous bound, network B a strict one. Tenants are dormant (no
    // filter memory) until their first packet arrives.
    let mut bank = SubscriberTable::new();
    bank.add_subscriber(
        net_a,
        BitmapFilterConfig::builder()
            .drop_policy(DropPolicy::new(20e6, 40e6)?)
            .build()?,
    )?;
    bank.add_subscriber(
        net_b,
        BitmapFilterConfig::builder()
            .drop_policy(DropPolicy::new(5e6, 10e6)?)
            .build()?,
    )?;
    println!(
        "core router: {} subscribers provisioned, {} KiB of filter state resident",
        bank.len(),
        bank.memory_bytes() / 1024
    );

    // Each network generates its own workload; the core router sees the
    // merge, time-sorted.
    let trace_a = generate(
        &TraceConfig::builder()
            .duration_secs(60.0)
            .flow_rate_per_sec(30.0)
            .inside(net_a)
            .seed(101)
            .build()?,
    );
    let trace_b = generate(
        &TraceConfig::builder()
            .duration_secs(60.0)
            .flow_rate_per_sec(30.0)
            .inside(net_b)
            .seed(202)
            .build()?,
    );
    let merged: Vec<_> = upbound::net::merge_sorted(vec![
        trace_a
            .raw_packets()
            .cloned()
            .collect::<Vec<_>>()
            .into_iter(),
        trace_b
            .raw_packets()
            .cloned()
            .collect::<Vec<_>>()
            .into_iter(),
    ])
    .collect();
    println!(
        "merged workload: {} packets from two networks\n",
        merged.len()
    );

    let mut passed = 0u64;
    let mut dropped = 0u64;
    for packet in &merged {
        match bank.process_packet(packet) {
            Verdict::Pass => passed += 1,
            Verdict::Drop => dropped += 1,
        }
    }
    println!("aggregate: {passed} passed, {dropped} dropped");
    for (net, stats) in bank.per_subscriber_stats() {
        println!(
            "  {net}: {} outbound, {} inbound, {} dropped ({} rotations)",
            stats.outbound_packets, stats.inbound_packets, stats.dropped, stats.rotations
        );
    }

    // Bonus: serve network A's stream through the sharded edge
    // dataplane — the same loop `upbound serve` runs per edge.
    let mut source = BufferedSource::labeled(trace_a.raw_packets().cloned().collect(), net_a);
    let report = PipelineRunner::new(net_a, BitmapFilterConfig::paper_evaluation())
        .shards(4)
        .serve(&mut source, &ServeControl::new())?;
    println!(
        "\nsharded dataplane over network A: {} in, {} passed, {} dropped",
        report.packets, report.passed, report.dropped
    );
    Ok(())
}
