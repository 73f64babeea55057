//! Render the JSON artefacts of `convmeter bench` (in `results/`) into a
//! single `REPORT.md` with paper-vs-measured tables.
//!
//! Run `cargo run -p convmeter-cli --release -- bench` first; this binary
//! only formats what that run wrote.

use convmeter_bench::exp_blocks::Table2Result;
use convmeter_bench::exp_compare::Fig6Row;
use convmeter_bench::exp_inference::{Fig2Series, Fig3Result, Table1Result};
use convmeter_bench::exp_scaling::{BatchCurve, ScalingCurve};
use convmeter_bench::exp_training::{Table3Result, TrainingPhasesResult};
use convmeter_bench::report::results_dir;
use std::fmt::Write as _;

fn load<T: serde::de::DeserializeOwned>(name: &str) -> Option<T> {
    let path = results_dir().join(format!("{name}.json"));
    let body = std::fs::read_to_string(&path).ok()?;
    serde_json::from_str(&body).ok()
}

fn md_row(out: &mut String, cells: &[String]) {
    let _ = writeln!(out, "| {} |", cells.join(" | "));
}

fn md_header(out: &mut String, cells: &[&str]) {
    md_row(
        out,
        &cells
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>(),
    );
    let _ = writeln!(
        out,
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

fn main() {
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# ConvMeter reproduction report\n\nGenerated from `results/*.json` (run `convmeter bench` to refresh).\nPaper: Beringer, Stock, Mazaheri & Wolf, ICPP 2024.\n"
    );
    let mut missing = Vec::new();

    // Table 1.
    if let Some(t1) = load::<Table1Result>("table1") {
        let _ = writeln!(
            md,
            "## Table 1 — inference prediction per ConvNet (leave-one-model-out)\n"
        );
        md_header(
            &mut md,
            &["model", "CPU R²", "CPU MAPE", "GPU R²", "GPU MAPE"],
        );
        for (c, g) in t1.cpu.iter().zip(&t1.gpu) {
            md_row(
                &mut md,
                &[
                    c.model.clone(),
                    format!("{:.2}", c.report.r2),
                    format!("{:.2}", c.report.mape),
                    format!("{:.2}", g.report.r2),
                    format!("{:.2}", g.report.mape),
                ],
            );
        }
        let _ = writeln!(
            md,
            "\nOverall (all-data fit): CPU {} · GPU {}\n\nPaper: CPU R²=0.98 / MAPE=0.25 · GPU R²=0.96 / MAPE=0.17\n",
            t1.cpu_overall, t1.gpu_overall
        );
    } else {
        missing.push("table1");
    }

    // Figure 2.
    if let Some(series) = load::<Vec<Fig2Series>>("fig2") {
        let _ = writeln!(md, "## Figure 2 — metric choice (GPU, in-sample)\n");
        md_header(&mut md, &["metric", "R²", "MAPE"]);
        for s in &series {
            md_row(
                &mut md,
                &[
                    s.metric.clone(),
                    format!("{:.3}", s.report.r2),
                    format!("{:.3}", s.report.mape),
                ],
            );
        }
        let _ = writeln!(
            md,
            "\nPaper: the combined metrics give the most accurate prediction.\n"
        );
    } else {
        missing.push("fig2");
    }

    // Figure 3.
    if let Some(f3) = load::<Fig3Result>("fig3") {
        let _ = writeln!(
            md,
            "## Figure 3 — held-out inference scatter\n\nCPU: {} ({} points) · GPU: {} ({} points)\n",
            f3.cpu_overall,
            f3.cpu_scatter.len(),
            f3.gpu_overall,
            f3.gpu_scatter.len()
        );
    } else {
        missing.push("fig3");
    }

    // Table 2 / Figure 4.
    if let Some(t2) = load::<Table2Result>("table2") {
        let _ = writeln!(md, "## Table 2 / Figure 4 — block-wise prediction (GPU)\n");
        md_header(&mut md, &["block", "RMSE (ms)", "NRMSE", "MAPE"]);
        for r in &t2.per_block {
            md_row(
                &mut md,
                &[
                    r.model.clone(),
                    format!("{:.2}", r.report.rmse * 1e3),
                    format!("{:.2}", r.report.nrmse),
                    format!("{:.2}", r.report.mape),
                ],
            );
        }
        let _ = writeln!(
            md,
            "\nOverall: {} · Paper: R²=0.997, RMSE=0.67 ms, MAPE=0.16\n",
            t2.overall
        );
    } else {
        missing.push("table2");
    }

    // Table 3.
    if let Some(t3) = load::<Table3Result>("table3") {
        let _ = writeln!(md, "## Table 3 — training-step prediction per ConvNet\n");
        md_header(&mut md, &["model", "1-GPU MAPE", "multi-node MAPE"]);
        for (s, d) in t3.single.iter().zip(&t3.distributed) {
            md_row(
                &mut md,
                &[
                    s.model.clone(),
                    format!("{:.2}", s.report.mape),
                    format!("{:.2}", d.report.mape),
                ],
            );
        }
        let _ = writeln!(
            md,
            "\nOverall: single {} · distributed {}\n\nPaper: single MAPE=0.18 · distributed MAPE=0.15\n",
            t3.single_overall, t3.distributed_overall
        );
    } else {
        missing.push("table3");
    }

    // Figures 5 & 7.
    for (name, title) in [
        ("fig5", "Figure 5 — single-GPU phases"),
        ("fig7", "Figure 7 — distributed phases"),
    ] {
        if let Some(f) = load::<TrainingPhasesResult>(name) {
            let _ = writeln!(md, "## {title}\n");
            md_header(&mut md, &["phase", "R²", "MAPE"]);
            for p in &f.phases {
                md_row(
                    &mut md,
                    &[
                        p.phase.clone(),
                        format!("{:.3}", p.report.r2),
                        format!("{:.3}", p.report.mape),
                    ],
                );
            }
            let _ = writeln!(md);
        } else {
            missing.push(name);
        }
    }

    // Figure 6.
    if let Some(rows) = load::<Vec<Fig6Row>>("fig6") {
        let _ = writeln!(md, "## Figure 6 — ConvMeter vs DIPPM surrogate (MAPE)\n");
        md_header(&mut md, &["model", "ConvMeter", "DIPPM surrogate"]);
        let mut wins = 0;
        let mut total = 0;
        for r in &rows {
            let d = r
                .dippm_mape
                .map_or("n/a (unparseable)".to_string(), |v| format!("{v:.3}"));
            if let Some(v) = r.dippm_mape {
                total += 1;
                if r.convmeter_mape < v {
                    wins += 1;
                }
            }
            md_row(
                &mut md,
                &[r.model.clone(), format!("{:.3}", r.convmeter_mape), d],
            );
        }
        let _ = writeln!(
            md,
            "\nConvMeter wins {wins}/{total} comparable models. Paper: ConvMeter outperforms DIPPM across all scenarios.\n"
        );
    } else {
        missing.push("fig6");
    }

    // Figure 8.
    if let Some(curves) = load::<Vec<ScalingCurve>>("fig8") {
        let _ = writeln!(
            md,
            "## Figure 8 — throughput vs nodes (1→16 node speedups)\n"
        );
        md_header(&mut md, &["model", "measured", "predicted"]);
        for c in &curves {
            let meas = c.measured_mean.last().unwrap() / c.measured_mean[0];
            let pred = c.predicted.last().unwrap().images_per_sec / c.predicted[0].images_per_sec;
            md_row(
                &mut md,
                &[
                    c.model.clone(),
                    format!("{meas:.2}x"),
                    format!("{pred:.2}x"),
                ],
            );
        }
        let _ = writeln!(
            md,
            "\nPaper: AlexNet shows the most prominent diminishing return, reflected by the prediction.\n"
        );
    } else {
        missing.push("fig8");
    }

    // Figure 9.
    if let Some(curves) = load::<Vec<BatchCurve>>("fig9") {
        let _ = writeln!(
            md,
            "## Figure 9 — throughput vs batch (gain from batch 128 to 2048)\n"
        );
        md_header(&mut md, &["model", "predicted gain"]);
        for c in &curves {
            let at = |b: usize| {
                c.predicted
                    .iter()
                    .find(|p| p.per_device_batch == b)
                    .map(|p| p.images_per_sec)
            };
            if let (Some(small), Some(big)) = (at(128), at(2048)) {
                md_row(&mut md, &[c.model.clone(), format!("{:.2}x", big / small)]);
            }
        }
        let _ = writeln!(
            md,
            "\nPaper: most models scale well to batch 2048; ResNet18 and SqueezeNet saturate early.\n"
        );
    } else {
        missing.push("fig9");
    }

    // Completeness from the registry itself: every artefact any registered
    // experiment declares, not just the ones this report renders.
    drop(missing);
    let dir = results_dir();
    let declared: Vec<&str> = convmeter_bench::engine::registry()
        .iter()
        .flat_map(|e| e.artifacts().iter().copied())
        .collect();
    let absent: Vec<&str> = declared
        .iter()
        .copied()
        .filter(|a| !dir.join(format!("{a}.json")).exists())
        .collect();
    if !absent.is_empty() {
        let _ = writeln!(
            md,
            "---\n\nMissing artefacts ({} of {} — run `convmeter bench` to generate): {}\n",
            absent.len(),
            declared.len(),
            absent.join(", ")
        );
    }

    std::fs::write("REPORT.md", &md).expect("write REPORT.md");
    println!(
        "REPORT.md written ({} bytes){}",
        md.len(),
        if absent.is_empty() {
            String::new()
        } else {
            format!("; {}/{} artefacts missing", absent.len(), declared.len())
        }
    );
}
