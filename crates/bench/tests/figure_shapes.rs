//! The behaviour fence: the "shape holds?" predicate of every paper result
//! in EXPERIMENTS.md, asserted on what `stayaway_bench::figures::<id>()`
//! measures — the same function `cargo bench --bench paper` prints, so no
//! experiment is defined twice.
//!
//! A change that moves map coordinates (the embedding, its gate, the
//! violation-range geometry) cannot be pinned bit for bit; what it must
//! keep is the shape the paper's figures show. Thresholds sit below the
//! numbers measured when each predicate was written; each test states that
//! number and the margin. The simulator is deterministic, so a failure is a
//! behaviour change, not noise: re-measure, and move a threshold only with
//! the reason beside it.

use stayaway_bench::figures::{self, PairedRuns, QosSweep};
use stayaway_sim::scenario::BatchKind;
use stayaway_statespace::ExecutionMode;

/// `fig01_wikipedia_trace`: a day/night swing with exploitable valleys.
/// Measured: troughs 0.146–0.149, peaks 0.932–0.941 on all four days, 151
/// of 384 ticks (39 %) below 0.4. Bounds: troughs under 0.25, peaks over
/// 0.85, a low-intensity share of 30–50 %.
#[test]
fn fig01_wikipedia_trace_swings_between_day_and_night() {
    let fig = figures::fig01_wikipedia_trace();
    for &(trough, peak, _) in &fig.days {
        assert!(trough < 0.25 && peak > 0.85, "day {trough:.3} – {peak:.3}");
    }
    let share = fig.low_ticks as f64 / fig.trace.len() as f64;
    assert!((0.30..=0.50).contains(&share), "low share {share:.3}");
}

/// `fig04_violation_radius`: `R(d) < d` everywhere, with the peak
/// `R = c·e^{−1/2}` at `d = c`. Exact formula; the grid's 0.02 step is the
/// only slack on where the peak lands.
#[test]
fn fig04_violation_radius_peaks_at_c_and_never_reaches_d() {
    let fig = figures::fig04_violation_radius();
    for (&c, radius) in fig.c.iter().zip(&fig.radius) {
        for (&d, &r) in fig.d.iter().zip(radius).skip(1) {
            assert!(r < d, "c = {c}: R({d}) = {r}");
        }
        let (i, &peak) = radius
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty curve");
        assert!(
            (fig.d[i] - c).abs() <= 0.02,
            "c = {c}: peak at {}",
            fig.d[i]
        );
        assert!(
            (peak - c * (-0.5f64).exp()).abs() < 1e-3,
            "c = {c}: peak {peak}"
        );
    }
}

/// `fig05_execution_modes`: the four modes form separate clusters, and
/// their step lengths are biased. Measured: nearest centroids 0.349 apart
/// (sensitive-only ↔ co-located) against a widest spread of 0.064
/// (batch-only), a 5.5× gap, asserted at 2×; step-length skews +13.08,
/// +2.10, +7.57 in three modes (−0.08 in the fourth), asserted over +1.
#[test]
fn fig05_execution_modes_separate_with_biased_steps() {
    let fig = figures::fig05_execution_modes();
    let clusters: Vec<_> = ExecutionMode::ALL
        .iter()
        .map(|&mode| fig.cluster(mode).expect("every mode occurs"))
        .collect();
    let widest = clusters.iter().map(|c| c.2).fold(0.0, f64::max);
    for (i, a) in clusters.iter().enumerate() {
        for b in &clusters[i + 1..] {
            let gap = a.1.distance(b.1);
            assert!(
                gap > 2.0 * widest,
                "centroids {gap:.3} apart, spread {widest:.3}"
            );
        }
    }
    let skewed = ExecutionMode::ALL
        .iter()
        .filter_map(|&mode| fig.step_histograms(mode))
        .filter(|(_, lengths, _)| lengths.skewness() > 1.0)
        .count();
    assert!(skewed >= 3, "{skewed} modes with skewed step lengths");
}

/// `fig06_instantaneous_transitions`: the violation appears within one
/// period of CPUBomb's arrival. Measured: CPUBomb starts at tick 30, QoS
/// is 1.000 through tick 29 and 0.667 (a violation) from tick 30; one
/// violation-state of two. Bound: the first violation at the onset tick or
/// the next.
#[test]
fn fig06_instantaneous_transitions_violate_at_the_onset() {
    let fig = figures::fig06_instantaneous_transitions();
    let timeline = &fig.run.outcome.timeline;
    let onset = timeline.iter().find(|r| r.batch_active > 0).expect("onset");
    let first = timeline.iter().find(|r| r.violated).expect("a violation");
    assert!(
        (onset.tick..=onset.tick + 1).contains(&first.tick),
        "CPUBomb at {}, first violation at {}",
        onset.tick,
        first.tick
    );
    assert!(fig.run.stats().violation_states >= 1);
}

/// `fig07_gradual_transitions`: Twitter-Analysis's memory phase approaches
/// the violation state gradually, so some throttles can come from the
/// forecast instead of from an observed violation. Measured: 3 proactive,
/// 9 reactive. The shape is "at least one" — with none, every violation
/// was paid for first (the state of the tree before the map left its line).
#[test]
fn fig07_gradual_transitions_are_partially_preventable() {
    let fig = figures::fig07_gradual_transitions();
    assert!(
        fig.proactive >= 1,
        "no throttle came from a forecast ({} reactive)",
        fig.reactive
    );
}

/// The QoS-timeline predicate of `fig08` / `fig09`: Stay-Away leaves at
/// most a tenth of the unprotected run's violations and meets the
/// satisfaction floor.
fn assert_qos_shape(id: &str, runs: &PairedRuns, floor: f64) {
    let (without, with) = (&runs.baseline.qos, &runs.stayaway.outcome.qos);
    assert!(
        with.violations * 10 <= without.violations,
        "{id}: {} violations with Stay-Away, {} without",
        with.violations,
        without.violations
    );
    assert!(
        with.satisfaction() >= floor,
        "{id}: satisfaction {:.3} under the {floor} floor",
        with.satisfaction()
    );
}

/// `fig08_vlc_cpubomb_qos`. Measured: 312 violation ticks without, 19 with
/// (95.1 %). Floor 94 %: four more violations in 384 ticks.
#[test]
fn fig08_vlc_cpubomb_qos_violations_are_cut_tenfold() {
    let fig = figures::fig08_vlc_cpubomb_qos();
    assert_qos_shape("fig08", &fig.runs, 0.94);
}

/// `fig09_vlc_twitter_qos`. Measured: 166 without, 9 with (97.7 %). Floor
/// 97 %: two more violations in 384 ticks.
#[test]
fn fig09_vlc_twitter_qos_violations_are_cut_tenfold() {
    let fig = figures::fig09_vlc_twitter_qos();
    assert_qos_shape("fig09", &fig.runs, 0.97);
}

/// `fig10_util_cpubomb`: against a phase-less, constantly contending
/// CPUBomb the gain collapses while the violations go. Measured: 5.5 % of
/// the possible gain kept (2.6 of 47.4 %), 310 violations without and 20
/// with. Bounds: at most 15 % kept, violations cut tenfold (15.5× today).
#[test]
fn fig10_util_cpubomb_gain_collapses() {
    let fig = figures::fig10_util_cpubomb();
    let retained = fig.runs.retained();
    assert!(
        retained <= 0.15,
        "retained {retained:.3} of the possible gain"
    );
    let (without, with) = (&fig.runs.baseline.qos, &fig.runs.stayaway.outcome.qos);
    assert!(with.violations * 10 <= without.violations);
}

/// `fig11_util_twitter`: a phase-rich batch application keeps about half of
/// the utilisation gain an unprotected co-location would have (the paper's
/// "~50 %"). Measured: 45 % retained; the band is 40–60 %.
#[test]
fn fig11_util_twitter_keeps_about_half_of_its_possible_gain() {
    let retained = figures::fig11_util_twitter().runs.retained();
    assert!(
        (0.40..=0.60).contains(&retained),
        "retained {retained:.3} of the possible gain"
    );
}

/// `fig12_util_webservice`: the gain depends on batch × workload, and the
/// CPU-heavy batch applications keep least under the CPU-intensive
/// workload. Measured: CPUBomb keeps 38 % (cpu) against 74 % / 55 % (mem /
/// mix), VLC transcoding 37 % against 73 % / 53 % — a 15-point gap at the
/// least; Stay-Away leaves at most 5 violations in any of the 15 cells,
/// asserted at 8.
#[test]
fn fig12_util_webservice_cpu_heavy_batch_keeps_least_under_cpu_load() {
    let fig = figures::fig12_util_webservice();
    for (workload, batch, runs) in &fig.rows {
        let with = runs.stayaway.outcome.qos.violations;
        assert!(with <= 8, "{batch} × {workload}: {with} violations");
    }
    for heavy in [BatchKind::CpuBomb, BatchKind::VlcTranscode] {
        let retained: Vec<f64> = fig
            .rows
            .iter()
            .filter(|(_, batch, _)| *batch == heavy)
            .map(|(_, _, runs)| runs.retained())
            .collect();
        // Rows are in cpu, mem, mix order.
        assert!(
            retained[0] < retained[1].min(retained[2]),
            "{heavy}: retained {retained:.3?}"
        );
    }
}

/// `fig13_timeline_webservice`: the batch is throttled at the workload's
/// onset, resumed in the valley and throttled again before the next
/// violation. Measured: 4 (13a) and 3 (13b) separate throttle episodes,
/// 3 violations in each 120-tick timeline. Bounds: at least 2 episodes, at
/// most 5 violations.
#[test]
fn fig13_timeline_webservice_throttles_in_episodes() {
    let fig = figures::fig13_timeline_webservice();
    for (workload, out) in &fig.runs {
        let episodes = out
            .timeline
            .windows(2)
            .filter(|w| w[0].batch_paused == 0 && w[1].batch_paused > 0)
            .count();
        assert!(episodes >= 2, "{workload}: {episodes} throttle episodes");
        assert!(
            out.qos.violations <= 5,
            "{workload}: {}",
            out.qos.violations
        );
    }
}

/// The predicate of `fig14` / `fig15` / `fig16`: high QoS with Stay-Away
/// beside every batch application, EXPERIMENTS.md's 96 % floor.
fn assert_web_qos_floor(sweep: &QosSweep) {
    for (batch, timeline) in &sweep.timelines {
        let satisfaction = timeline.runs.stayaway.outcome.qos.satisfaction();
        assert!(
            satisfaction >= 0.96,
            "{batch}: satisfaction {satisfaction:.3}"
        );
    }
}

/// `fig14_qos_web_mix`. Measured minimum 98.3 % (MemoryBomb, 5 violations
/// in 300 ticks); the 96 % floor is seven more.
#[test]
fn fig14_qos_web_mix_stays_above_96_percent() {
    assert_web_qos_floor(&figures::fig14_qos_web_mix());
}

/// `fig15_qos_web_cpu`. Measured minimum 97.7 % (CPUBomb, 7 violations in
/// 300 ticks); the 96 % floor is five more.
#[test]
fn fig15_qos_web_cpu_stays_above_96_percent() {
    assert_web_qos_floor(&figures::fig15_qos_web_cpu());
}

/// `fig16_qos_web_mem`. Measured minimum 98.7 % (MemoryBomb, 4 violations
/// in 300 ticks); the 96 % floor is eight more.
#[test]
fn fig16_qos_web_mem_stays_above_96_percent() {
    assert_web_qos_floor(&figures::fig16_qos_web_mem());
}

/// `fig17_template_capture`: the captured map is the template, safe and
/// violation-labelled states alike. Measured: 24 states, 7 of them
/// violation-labelled. The shape is "both kinds, every state exported".
#[test]
fn fig17_template_capture_exports_both_kinds_of_state() {
    let fig = figures::fig17_template_capture();
    let (states, violations) = (fig.template.len(), fig.template.violation_count());
    assert_eq!(states, fig.run.policy.repr_count());
    assert!(
        (1..states).contains(&violations),
        "{violations} of {states}"
    );
}

/// `fig18_template_validation`: a co-runner that maps into the template's
/// violation region is mostly violating there (§6's validity claim).
/// Measured beside soplex: 161 co-located ticks in the region, 140 of them
/// violations (87 %). Bounds: at least 50 ticks, precision 80 % (11 more
/// safe ticks in the region today).
#[test]
fn fig18_template_validation_region_stays_a_violation_region() {
    let soplex = figures::fig18_template_validation().soplex;
    assert!(
        soplex.in_region >= 50,
        "{} ticks in the region",
        soplex.in_region
    );
    assert!(
        soplex.precision >= 0.80,
        "precision {:.3}",
        soplex.precision
    );
}

/// `table1_batch_combinations`: with two batch applications aggregated
/// into one logical VM, Stay-Away still cuts the violations and keeps most
/// of the gain. Measured: 185–256 violations without, 4–55 with (the
/// smallest cut 4.6×, Batch-2 × mix); 54–78 % of the possible gain kept.
/// Bounds: a 3× cut and 40 % kept in every row.
#[test]
fn table1_batch_combinations_protect_and_keep_the_gain() {
    for (combo, workload, runs) in &figures::table1_batch_combinations().rows {
        let (without, with) = (
            runs.baseline.qos.violations,
            runs.stayaway.outcome.qos.violations,
        );
        assert!(
            with * 3 <= without,
            "{combo} × {workload}: {without} → {with}"
        );
        let retained = runs.retained();
        assert!(
            retained >= 0.40,
            "{combo} × {workload}: retained {retained:.3}"
        );
    }
}

/// `claim_prediction_accuracy`: the verdict of each co-located forecast,
/// checked against the state actually reached. Measured: 100 % on each of
/// the six co-locations that check a verdict; `vlc+cpu-bomb` checks none
/// and is `n/a`, not 0. Floor 99 % on the mean of the checked ones.
#[test]
fn claim_prediction_accuracy_stays_at_its_ceiling() {
    let fig = figures::claim_prediction_accuracy();
    for (name, checks, accuracy) in &fig.rows {
        assert_eq!(accuracy.is_none(), *checks == 0, "{name}: {checks} checks");
    }
    let mean = fig.mean.expect("some co-location checks a verdict");
    assert!(mean >= 0.99, "mean prediction accuracy {mean:.3}");
}

/// `claim_utilization_range`: the retained fraction of the possible gain
/// spans near-zero to near-full depending on the batch application, at
/// high QoS. Measured: VLC transcoding 2 %, CPUBomb 6 %, MemoryBomb 93 %;
/// satisfaction 94.5–99.7 %. Bounds: at most 15 % for the two CPU-bound
/// co-runners, at least 80 % for MemoryBomb, 93 % satisfaction (five more
/// violations in 384 ticks for CPUBomb).
#[test]
fn claim_utilization_range_spans_near_zero_to_near_full() {
    for (batch, runs) in &figures::claim_utilization_range().rows {
        let retained = runs.retained();
        match batch {
            BatchKind::CpuBomb | BatchKind::VlcTranscode => {
                assert!(retained <= 0.15, "{batch}: retained {retained:.3}")
            }
            BatchKind::MemoryBomb => assert!(retained >= 0.80, "{batch}: {retained:.3}"),
            _ => {}
        }
        let satisfaction = runs.stayaway.outcome.qos.satisfaction();
        assert!(
            satisfaction >= 0.93,
            "{batch}: satisfaction {satisfaction:.3}"
        );
    }
}

/// `claim_2d_stress`: the elbow of §5 — going from one dimension to two
/// removes most of the stress of an exact solve of the learned states.
/// Measured 2-D / 1-D ratios: 0.10, 0.22, 0.27, 0.30, 0.32; the predicate
/// is "at most half" on every row. These are *cold* solves: they say two
/// dimensions are enough, not that the live map uses them — that is
/// `tests/map_quality.rs::live_map_tracks_a_cold_exact_solve`.
#[test]
fn claim_2d_stress_has_its_elbow_at_two_dimensions() {
    for (name, _, [flat, planar, _], _) in &figures::claim_2d_stress().rows {
        assert!(
            *planar <= 0.5 * flat,
            "{name}: stress {flat:.4} in 1-D, {planar:.4} in 2-D"
        );
    }
}

/// `ablation_modes`: one pooled trajectory model mixes the modes' dynamics
/// and predicts worse. Measured pooled / per-mode open-loop error: 2.28×
/// and 2.55× on the two distinct-mode trails, 1.30× when the modes' headings
/// are similar. Bounds: 2× and 1.1×.
#[test]
fn ablation_modes_pooled_model_predicts_worse() {
    for &(trail, per_mode, pooled, _) in &figures::ablation_modes().open_loop {
        let floor = if trail == "similar headings" {
            1.1
        } else {
            2.0
        };
        assert!(
            pooled >= floor * per_mode,
            "{trail}: {pooled:.4} vs {per_mode:.4}"
        );
    }
}

/// `ablation_range`: without Rayleigh ranges every minor variation of a
/// contention must be experienced first. Measured: 29 vs 18 violations
/// against CPUBomb (1.61×), 23 vs 12 against Twitter (1.92×). Bound: 1.3×
/// (five fewer exact-overlap violations against CPUBomb).
#[test]
fn ablation_range_exact_overlap_pays_more_violations() {
    let rows = figures::ablation_range().rows;
    for pair in rows.chunks(2) {
        let [(name, true, ranged), (_, false, exact)] = pair else {
            panic!("rows come in (ranges, exact-overlap) pairs");
        };
        let (ranged, exact) = (ranged.outcome.qos.violations, exact.outcome.qos.violations);
        assert!(
            exact as f64 >= 1.3 * ranged as f64,
            "{name}: {exact} vs {ranged}"
        );
    }
}

/// `ablation_samples`: accuracy needs no more than one sample; what more
/// samples buy is proactive verdicts, up to a knee at about 3. Measured:
/// 100 % accuracy at every count; 11 proactive predictions with 1 sample,
/// 15 with the paper's 5. Bounds: 99 % accuracy, 5 samples strictly ahead
/// of 1.
#[test]
fn ablation_samples_more_samples_buy_proactive_verdicts() {
    let rows = figures::ablation_samples().rows;
    for (samples, run) in &rows {
        let accuracy = run.stats().prediction_accuracy().expect("verdicts checked");
        assert!(accuracy >= 0.99, "{samples} samples: {accuracy:.3}");
    }
    let predicted = |n| {
        let (_, run) = rows
            .iter()
            .find(|(samples, _)| *samples == n)
            .expect("swept");
        run.stats().violations_predicted
    };
    assert!(
        predicted(5) > predicted(1),
        "{} vs {}",
        predicted(5),
        predicted(1)
    );
}

/// `ablation_pca`: PCA's projection distorts the distances violation-ranges
/// are measured in. Measured: stress-1 0.0514 (PCA) against 0.0278 (MDS),
/// 1.85×, asserted at 1.5×; separation 1.381 against 1.420, asserted as
/// "MDS no worse".
#[test]
fn ablation_pca_projection_distorts_the_map() {
    let fig = figures::ablation_pca();
    let ((mds_sep, pca_sep), (mds_stress, pca_stress)) = (fig.separation, fig.stress);
    assert!(
        pca_stress >= 1.5 * mds_stress,
        "{pca_stress:.4} vs {mds_stress:.4}"
    );
    assert!(
        mds_sep >= pca_sep,
        "separation {mds_sep:.3} vs {pca_sep:.3}"
    );
}

/// `ablation_var`: in 2-D both forecasters are viable from a handful of
/// observations. Measured VAR / sampler error: 0.75–0.94× over three
/// trajectory families and warm-ups of 8 / 32 / 128. Band: 0.6–1.25×.
#[test]
fn ablation_var_both_forecasters_are_viable_in_2d() {
    for &(trail, warmup, var, sampler, _) in &figures::ablation_var().rows {
        let ratio = var / sampler;
        assert!(
            (0.6..=1.25).contains(&ratio),
            "{trail} @ {warmup}: {ratio:.2}×"
        );
    }
}

/// `ablation_ipc`: the IPC-inferred detector protects as well as the
/// application's own reports. Measured actual violations, inferred vs
/// reported: 20 vs 20 (CPUBomb), 4 vs 8 (Twitter). Bound: at most 1.25×
/// the reported run's (five more against CPUBomb).
#[test]
fn ablation_ipc_inferred_detection_protects_comparably() {
    let rows = figures::ablation_ipc().rows;
    for pair in rows.chunks(2) {
        let [(name, "app-reported", reported), (_, "ipc-inferred", inferred)] = pair else {
            panic!("rows come in (app-reported, ipc-inferred) pairs");
        };
        let (reported, inferred) = (
            reported.outcome.qos.violations,
            inferred.outcome.qos.violations,
        );
        assert!(
            inferred as f64 <= 1.25 * reported as f64,
            "{name}: {inferred} vs {reported}"
        );
    }
}

/// `ablation_dedup`: deduplication keeps a few representatives of a
/// phase-structured stream. Measured: 4 / 5 / 6 of 120 / 240 / 480 samples
/// (3.3 / 2.1 / 1.2 %). Bound: 5 % of the stream.
#[test]
fn ablation_dedup_keeps_a_few_representatives() {
    for &(n, kept) in &figures::ablation_dedup().rows {
        assert!(kept * 20 <= n, "{kept} of {n} kept");
    }
}

/// `ext_priorities`: Stay-Away protects the priority-0 application by
/// throttling the priority-1 one. Measured: 257 violations without, 9 with
/// (97.7 %), 9 throttles, 0 rejected actions. Bounds: a tenfold cut (28×
/// today), 96 % satisfaction (six more violations in 384 ticks), at least
/// one throttle and no rejected action.
#[test]
fn ext_priorities_protect_the_top_priority_application() {
    let runs = figures::ext_priorities().runs;
    assert_qos_shape("ext_priorities", &runs, 0.96);
    assert!(runs.stayaway.stats().throttles >= 1);
    assert_eq!(runs.stayaway.outcome.rejected_actions, 0);
}

/// `ext_template_sharing`: follower cells import a pioneer's template and
/// throttle on first contact, so the startup window is safer warm than
/// cold. Measured at 48 ticks: 62 of 64 cells import, 32 proactive first
/// throttles, 115 violations warm against 118 cold. Bounds: 60 imports,
/// one proactive first throttle, warm no worse than cold.
#[test]
fn ext_template_sharing_gives_a_head_start() {
    let fig = figures::ext_template_sharing();
    let (_, cold, warm) = &fig.horizons[0];
    assert!(warm.cells_imported >= 60, "{} imports", warm.cells_imported);
    assert!(warm.proactive_first_throttles >= 1);
    assert!(
        warm.qos.violations <= cold.qos.violations,
        "{} warm vs {} cold",
        warm.qos.violations,
        cold.qos.violations
    );
}

/// The name of the timing target a first-cell "`name` (criterion…" names.
fn timing_targets(cell: &str) -> impl Iterator<Item = &str> {
    let ends = cell.match_indices("` (criterion").map(|(i, _)| i);
    ends.filter_map(|i| cell[..i].rsplit_once('`').map(|(_, name)| name))
}

/// The drift fence: every result in `figures::ALL` has an EXPERIMENTS.md
/// row and a predicate above named after it that calls it; no row names a
/// timing target (`` `name` (criterion) ``) that `Cargo.toml` no longer
/// declares, unless the row says the target was removed.
#[test]
fn every_result_has_a_predicate_and_a_row() {
    let experiments = include_str!("../../../EXPERIMENTS.md");
    let predicates = include_str!("figure_shapes.rs");
    let manifest = include_str!("../Cargo.toml");
    // (row, first cell) of every table row that starts with a backticked name.
    let first_cells: Vec<(&str, &str)> = experiments
        .lines()
        .filter(|row| row.starts_with("| `"))
        .filter_map(|row| Some((row, row[2..].split(" |").next()?)))
        .collect();
    for (id, _) in figures::ALL {
        let named = format!("`{id}`");
        assert!(
            first_cells.iter().any(|(_, cell)| cell.contains(&named)),
            "{id} has no EXPERIMENTS.md row"
        );
        assert!(
            predicates.contains(&format!("fn {id}_"))
                && predicates.contains(&format!("figures::{id}()")),
            "no predicate named after {id} calls figures::{id}()"
        );
    }
    for (row, cell) in first_cells {
        if row.contains("removed in PR") {
            continue;
        }
        for target in timing_targets(cell) {
            assert!(
                manifest.contains(&format!("name = \"{target}\"")),
                "EXPERIMENTS.md names the timing target `{target}`, which Cargo.toml lacks"
            );
        }
    }
}
