//! Substrate benchmark: the degree-table construction that dominates each BL
//! stage.
//!
//! Run with `cargo bench -p bench --bench primitives`.

use bench::uniform_workload;
use criterion::{criterion_group, criterion_main, Criterion};
use hypergraph::degree::DegreeTable;
use std::time::Duration;

fn primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_primitives");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let h = uniform_workload(2048, 4, 22);
    group.bench_function("degree_table_n2048_d4", |b| {
        b.iter(|| DegreeTable::build(&h).delta())
    });
    group.finish();
}

criterion_group!(benches, primitives);
criterion_main!(benches);
