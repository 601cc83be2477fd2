//! Golden digests of the trace generators: every generator's RNG draw
//! sequence is pinned, so a refactor of the generation code must keep the
//! generated traces bit-identical (arrival and deadline bits included). The
//! expected values were recorded before the three generators shared one
//! RWCET draw.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rtrm_platform::{Platform, TaskCatalog, Trace};
use rtrm_trace::{
    generate_catalog, generate_pattern_traces, generate_traces, BurstyConfig, CatalogConfig,
    DiurnalConfig, TraceConfig, WorkloadPattern,
};

/// FNV-1a over every request's id, arrival bits, task type and deadline
/// bits, trace after trace.
fn digest(traces: &[Trace]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for trace in traces {
        for r in trace.iter() {
            eat(r.id.index() as u64);
            eat(r.arrival.value().to_bits());
            eat(r.task_type.index() as u64);
            eat(r.deadline.value().to_bits());
        }
    }
    hash
}

fn catalog() -> TaskCatalog {
    let platform = Platform::paper_default();
    let mut rng = StdRng::seed_from_u64(3);
    generate_catalog(&platform, &CatalogConfig::paper(), &mut rng)
}

#[test]
fn calibrated_batches_are_pinned() {
    let catalog = catalog();
    let vt = generate_traces(&catalog, &TraceConfig::calibrated_vt(), 8, 17);
    let lt = generate_traces(&catalog, &TraceConfig::calibrated_lt(), 8, 29);
    assert_eq!(digest(&vt), 8_304_881_574_095_402_485, "calibrated VT");
    assert_eq!(digest(&lt), 18_119_066_133_034_173_571, "calibrated LT");
}

#[test]
fn pattern_and_bursty_batches_are_pinned() {
    let catalog = catalog();
    let diurnal = WorkloadPattern::Diurnal(DiurnalConfig {
        length: 300,
        ..DiurnalConfig::default()
    });
    let bursty = WorkloadPattern::Bursty(BurstyConfig {
        length: 300,
        ..BurstyConfig::default()
    });
    let diurnal = generate_pattern_traces(&catalog, &diurnal, 4, 41);
    let bursty = generate_pattern_traces(&catalog, &bursty, 4, 43);
    assert_eq!(digest(&diurnal), 278_653_304_481_623_939, "diurnal pattern");
    assert_eq!(digest(&bursty), 8_243_543_976_293_727_597, "bursty pattern");
}
