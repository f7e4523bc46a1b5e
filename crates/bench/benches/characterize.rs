//! Characterisation performance benchmark: the kernel-based, early-exit
//! dwell/wait pipeline against the full-horizon reference path it replaced
//! (the PR acceptance floor is a 5× speed-up on the kernel path).
//!
//! Both paths produce bit-identical curves — asserted here before timing —
//! so the comparison is purely about the cost of fixed-horizon allocating
//! simulation versus scratch-buffer simulation with provable early exit.

use cps_control::{
    characterize_dwell_vs_wait, characterize_dwell_vs_wait_reference, CharacterizationConfig,
    CharacterizationWorkspace,
};
use cps_core::{case_study, characterize_application, experiments};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    // Linear switched loops of the case-study servo (the Figure 3 pipeline
    // without saturation), characterised over the default 3000-sample cap.
    let app = case_study::derived_fleet().expect("fleet design").remove(2);
    let a1 = app.et_controller().closed_loop().clone();
    let a2 = app.tt_controller().closed_loop().clone();
    let mut initial = app.spec().disturbance.clone();
    initial.extend(std::iter::repeat(0.0).take(app.spec().plant.inputs()));
    let config = CharacterizationConfig {
        period: app.spec().period,
        threshold: app.spec().threshold,
        initial_state: initial,
        plant_order: app.spec().plant.order(),
        horizon: 3_000,
    };
    let fast = characterize_dwell_vs_wait(&a1, &a2, &config, &mut CharacterizationWorkspace::new())
        .expect("kernel characterisation");
    let reference =
        characterize_dwell_vs_wait_reference(&a1, &a2, &config).expect("reference");
    assert_eq!(fast, reference, "paths must agree before being compared for speed");

    // The saturated servo rig of Figure 3, same comparison.
    let rig = experiments::servo_rig_application().expect("rig design");
    let model = rig.saturated_model().expect("model").expect("rig has a torque limit");
    let rig_config = CharacterizationConfig {
        period: rig.spec().period,
        threshold: rig.spec().threshold,
        initial_state: rig.spec().disturbance.clone(),
        plant_order: rig.spec().plant.order(),
        horizon: 3_000,
    };
    let fast = model
        .characterize(&rig_config, &mut CharacterizationWorkspace::new())
        .expect("kernel characterisation");
    let reference = model.characterize_reference(&rig_config).expect("reference");
    assert_eq!(fast, reference, "saturated paths must agree");

    let mut group = c.benchmark_group("characterize");
    group.sample_size(10);
    // The kernel rungs build a fresh workspace per iteration, so they keep
    // measuring the cost of a one-off characterisation.
    group.bench_function("linear_kernel", |b| {
        b.iter(|| {
            let mut workspace = CharacterizationWorkspace::new();
            black_box(characterize_dwell_vs_wait(&a1, &a2, &config, &mut workspace).expect("curve"))
        })
    });
    group.bench_function("linear_full_horizon_reference", |b| {
        b.iter(|| {
            black_box(characterize_dwell_vs_wait_reference(&a1, &a2, &config).expect("curve"))
        })
    });
    group.bench_function("saturated_kernel", |b| {
        b.iter(|| {
            let mut workspace = CharacterizationWorkspace::new();
            black_box(model.characterize(&rig_config, &mut workspace).expect("curve"))
        })
    });
    group.bench_function("saturated_full_horizon_reference", |b| {
        b.iter(|| black_box(model.characterize_reference(&rig_config).expect("curve")))
    });
    // The end-to-end Figure 3/4 pipeline of one application (characterise +
    // implicit settling sweeps), now riding entirely on the kernel path.
    group.bench_function("application_pipeline", |b| {
        b.iter(|| {
            let mut workspace = CharacterizationWorkspace::new();
            black_box(characterize_application(&app, &mut workspace).expect("curve"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
