//! Pins the bytes of the paper artefacts.
//!
//! Every registry experiment except fig6 (whose MLP surrogate dominates a
//! full run) is regenerated through the experiment engine with the disk
//! cache off, and each artefact's `stable_digest` — the `hash` the engine
//! records in `manifest.json` — must equal the value pinned below. A
//! refactor of the cost model, the simulators, the fits or the engine that
//! moves any artefact by a single bit fails here.
//!
//! When a change is *meant* to alter an artefact, regenerate it with
//! `convmeter bench --no-cache`, copy the new `hash` from the manifest and
//! say why in CHANGES.md.

use convmeter_bench::engine::{registry, Engine, EngineConfig, FaultToleranceConfig};
use std::collections::BTreeMap;

/// `(artefact, stable_digest)` for the 17 artefacts of the 15 experiments.
const PINNED: [(&str, &str); 17] = [
    ("ablations", "ff466ce30d397c436abeb65e0115fb06"),
    ("contamination", "365bdc462ab4022e2420c0b38d1c2bfd"),
    ("ext_fusion_buffer", "464f926c99e349632e0a7ec999a3f946"),
    ("ext_precisions", "16e9cc985663bec2e5583a59430c8c72"),
    ("ext_strategies", "e15dcfd4eed220202a40e181ab6662d1"),
    ("ext_transformers", "9bf4dd32438045b309db704808c63672"),
    ("extended_zoo", "beded7b587dbad99b20541830193a478"),
    ("fig2", "384f0ab763aa5ab200cb669fb9227770"),
    ("fig3", "556307ae725627e0755435a1c387f302"),
    ("fig4", "cb9f489f5270448724b95c82e2e8878a"),
    ("fig5", "bb68c9b034047431ef8b37a484406dfc"),
    ("fig7", "405b6e8bd4a42253ad848913be4b0787"),
    ("fig8", "ce71a7bb5371d2e4eb83eeb979fd3993"),
    ("fig9", "0638debd56b5ded5e63db707f746cc0c"),
    ("table1", "e8a25026c391f06034f8225ea8301f69"),
    ("table2", "df81ee4a3ce4e077609c3b8ee375ffbe"),
    ("table3", "bc483ddf6e537f9e0c3d8438b7ee7819"),
];

#[test]
fn artefact_digests_match_the_pinned_values() {
    let dir = std::env::temp_dir().join(format!("convmeter-digests-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let names: Vec<&str> = registry()
        .iter()
        .map(|e| e.name())
        .filter(|&n| n != "fig6")
        .collect();
    assert_eq!(names.len(), 15);
    let config = EngineConfig {
        jobs: 2,
        use_disk_cache: false,
        results_dir: dir.clone(),
        fault: FaultToleranceConfig::default(),
    };
    let report = Engine::select(&names, config)
        .expect("registry names resolve")
        .run()
        .expect("engine run succeeds");
    std::fs::remove_dir_all(&dir).ok();

    let got: BTreeMap<&str, &str> = report
        .manifest
        .experiments
        .iter()
        .flat_map(|e| &e.artifacts)
        .map(|a| (a.name.as_str(), a.hash.as_str()))
        .collect();
    let want: BTreeMap<&str, &str> = PINNED.into_iter().collect();
    assert_eq!(got, want);
}
