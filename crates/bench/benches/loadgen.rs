//! Load-generation harness benchmarks: schedule construction (the pure
//! deterministic part) and a short closed-loop drive of the fleet. The
//! world scale honors `MARKETSCOPE_BENCH_DIVISOR` like every other
//! suite, so the standing BENCH baselines and these Criterion numbers
//! describe the same workload size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use marketscope::ecosystem::{generate, WorldConfig};
use marketscope::loadgen::{run_against, Corpus, EndpointMix, LoadConfig, LoadStep, Schedule};
use marketscope::market::MarketFleet;
use marketscope_bench::bench_scale;
use std::sync::Arc;
use std::time::Duration;

fn bench_schedule(c: &mut Criterion) {
    let world = generate(WorldConfig {
        seed: 0xBE7C4,
        scale: bench_scale(),
        ..WorldConfig::default()
    });
    let corpus = Corpus::from_world(&world);
    let mut g = c.benchmark_group("loadgen");
    g.bench_function("corpus_from_world", |b| {
        b.iter(|| Corpus::from_world(&world))
    });
    for workers in [4usize, 16] {
        let requests = workers * 100;
        g.throughput(Throughput::Elements(requests as u64));
        g.bench_with_input(
            BenchmarkId::new("schedule_100_per_worker", workers),
            &workers,
            |b, &workers| {
                b.iter(|| Schedule::build(7, &corpus, workers, 100, &EndpointMix::crawl()))
            },
        );
    }
    g.finish();
}

fn bench_closed_loop(c: &mut Criterion) {
    let world = Arc::new(generate(WorldConfig {
        seed: 0xBE7C4,
        scale: bench_scale(),
        ..WorldConfig::default()
    }));
    let fleet = MarketFleet::spawn(Arc::clone(&world)).expect("spawn fleet");
    let config = LoadConfig {
        seed: 7,
        steps: vec![LoadStep {
            workers: 4,
            requests_per_worker: 25,
            target_rps: None,
        }],
        mix: EndpointMix::metadata(),
        max_inflight: None,
        resilience: false,
        hold_connections: 0,
        open_loop: false,
        sample_every: Duration::from_millis(25),
    };
    let mut g = c.benchmark_group("loadgen");
    g.sample_size(10);
    g.throughput(Throughput::Elements(100));
    g.bench_function("drive_fleet_100_requests", |b| {
        b.iter(|| run_against(&fleet, &config))
    });
    g.finish();
    fleet.stop();
}

criterion_group!(benches, bench_schedule, bench_closed_loop);
criterion_main!(benches);
