//! PageRank and RWR iterate through `GpuSpmv::spmm_affine`: on a
//! dynamic-parallelism ACSR plan with G1 rows, each iteration is one
//! `acsr_spmm` launch group (its last kernel finalizing the G1 rows) and
//! one readback of the wave's convergence partials, with no update or
//! norm kernel of its own; on a HYB plan the update still runs as the
//! `rwr_update` kernel. Either way, every iterate is bit-identical at
//! host width 1 (where DP's atomic order is pinned) to a two-launch loop
//! (`spmv`, then `scale_add` or `rwr_update_multi`, then
//! `l2_distance`), and the iteration count is the CPU reference's.
//!
//! The convergence check is pipelined: wave k + 1 runs on the compute
//! engine while a D2H copy engine reads back wave k's partials, and the
//! host launches wave k + 2 only once it holds them, so a solve that
//! stops before its iteration cap has launched one wave more than it
//! iterated, and discarded it. `SolveResult::wall_s` is rebuilt here
//! from a traced solve's spans with that rule — start(w_k) =
//! max(end(w_{k−1}), end(r_{k−2})), start(r_k) = max(end(w_k),
//! end(r_{k−1})), the scores readback after the last partials readback,
//! the wall the later of its end and the last wave's — on both of its
//! branches and on waves of alternating length, and degenerate
//! operators run through the same loop.

use gpu_sim::trace::{Span, SpanKind};
use gpu_sim::{presets, set_sim_threads, Device, DeviceBuffer, RunReport};
use graph_apps::ops::{l2_distance_sq, scale_add};
use graph_apps::pagerank::{pagerank_cpu, pagerank_gpu, pagerank_operator};
use graph_apps::rwr::{rwr_cpu, rwr_gpu, rwr_operator};
use graph_apps::{IterParams, SolveResult};
use graphgen::{generate_power_law, PowerLawConfig};
use sparse_formats::{CsrMatrix, PreprocessCost, TripletMatrix};
use spmv_kernels::epilogue::rwr_update_multi;
use spmv_kernels::{Affine, AffineWave, GpuSpmv, Restart};
use spmv_pipeline::{FormatRegistry, PlanBudget, PreprocessClass, SpmvPlan};
use std::cell::Cell;

const DAMPING: f64 = 0.85;
const SEED: usize = 7;

/// Fused ACSR (dynamic-parallelism mode on Titan) and two-launch HYB.
const FORMATS: [&str; 2] = ["ACSR", "HYB"];

/// A power-law graph whose rows 0..3 have `max_degree` non-zeros: G1
/// rows of the RWR operator, and (through the transpose) of the
/// PageRank operator.
fn graph(rows: usize, max_degree: usize) -> CsrMatrix<f64> {
    generate_power_law(&PowerLawConfig {
        rows,
        cols: rows,
        mean_degree: 6.0,
        max_degree,
        pinned_max_rows: 3,
        col_skew: 0.4,
        seed: 181,
        ..Default::default()
    })
}

fn plan(dev: &Device, op: &CsrMatrix<f64>, format: &str) -> SpmvPlan<f64> {
    FormatRegistry::<f64>::with_all()
        .plan(format, dev, op, &PlanBudget::default())
        .unwrap()
}

/// The two-launch loop: `spmv` into a temporary, the update kernel
/// `update` (tmp → next), then `l2_distance` between the iterates.
/// Returns every iterate.
fn two_launch_iterates(
    dev: &Device,
    plan: &SpmvPlan<f64>,
    x0: Vec<f64>,
    params: &IterParams,
    update: impl Fn(&DeviceBuffer<f64>, &DeviceBuffer<f64>),
) -> Vec<Vec<f64>> {
    let n = plan.rows();
    let mut x = dev.alloc(x0);
    let tmp = dev.alloc_zeroed::<f64>(n);
    let mut next = dev.alloc_zeroed::<f64>(n);
    let mut iterates = Vec::new();
    loop {
        plan.spmv(dev, &x, &tmp);
        update(&tmp, &next);
        let (dist2, _) = l2_distance_sq(dev, &next, &x);
        std::mem::swap(&mut x, &mut next);
        iterates.push(x.as_slice().to_vec());
        if dist2.sqrt() < params.epsilon || iterates.len() >= params.max_iters {
            return iterates;
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Spans of `kind` named `name`.
fn count(spans: &[Span], kind: SpanKind, name: &str) -> usize {
    spans
        .iter()
        .filter(|s| s.kind == kind && s.name == name)
        .count()
}

/// The launch that ends each wave on a `format` plan: the `acsr_spmm`
/// group on ACSR, the `rwr_update` kernel elsewhere.
fn wave_end(format: &str) -> &'static str {
    if format == "ACSR" {
        "acsr_spmm"
    } else {
        "rwr_update"
    }
}

/// Trace `solve` on a `format` plan and check its spans: on ACSR one
/// `acsr_spmm` group per wave and no update kernel, elsewhere one
/// `rwr_update` per wave, with one wave past the last iteration, and
/// one partials readback per iteration; then check that the solve
/// capped at every iteration count launches that many waves and
/// reproduces `want`'s iterate.
fn check_solver(
    op: &CsrMatrix<f64>,
    format: &str,
    app: &str,
    want: impl Fn(&Device, &SpmvPlan<f64>) -> Vec<Vec<f64>>,
    solve: impl Fn(&Device, &SpmvPlan<f64>, &IterParams) -> SolveResult<f64>,
    cpu_iterations: usize,
) {
    let mut dev = Device::new(presets::gtx_titan());
    let plan = plan(&dev, op, format);
    let iterates = want(&dev, &plan);
    let ledger = dev.enable_tracing();
    let full = solve(&dev, &plan, &IterParams::default());
    let spans = ledger.spans();
    let it = full.iterations;
    let what = format!("{app} on {format}");
    assert_eq!(it, cpu_iterations, "{what}: iterations");
    assert_eq!(
        it,
        iterates.len(),
        "{what}: the two-launch loop's iterations"
    );
    let readback = format!("{app}_partials_d2h");
    assert_eq!(count(&spans, SpanKind::Transfer, &readback), it, "{what}");
    assert_eq!(count(&spans, SpanKind::Launch, "l2_distance"), 0, "{what}");
    assert_eq!(count(&spans, SpanKind::Launch, "scale_add"), 0, "{what}");
    let waves = it + 1;
    assert_eq!(
        count(&spans, SpanKind::Launch, wave_end(format)),
        waves,
        "{what}: the waves, the discarded one included"
    );
    if format == "ACSR" {
        assert_eq!(
            count(&spans, SpanKind::Stream, "acsr_dp_finalize"),
            waves,
            "{what}"
        );
        assert_eq!(count(&spans, SpanKind::Launch, "rwr_update"), 0, "{what}");
        assert!(full.report.counters.child_launches > 0, "{what}: G1 rows");
        let launches = spans.iter().filter(|s| s.kind == SpanKind::Launch).count();
        assert_eq!(launches, waves, "{what}: one launch group per wave");
    }
    for (m, want) in iterates.iter().enumerate() {
        let capped = IterParams {
            epsilon: 0.0,
            max_iters: m + 1,
        };
        ledger.clear();
        let got = solve(&dev, &plan, &capped);
        assert_eq!(got.iterations, m + 1);
        let launched = count(&ledger.spans(), SpanKind::Launch, wave_end(format));
        assert_eq!(launched, m + 1, "{what}: no wave past the cap");
        assert_eq!(bits(&got.scores), bits(want), "{what}: iterate {}", m + 1);
    }
}

#[test]
fn affine_solvers_fuse_on_dp_acsr_and_keep_the_two_launch_iterates() {
    set_sim_threads(1);
    let g = graph(2000, 1500);
    let params = IterParams::default();

    let pr_op = pagerank_operator(&g.transpose());
    let n = pr_op.rows();
    let (_, pr_cpu) = pagerank_cpu(n, DAMPING, &params, |x, y| pr_op.spmv_into(x, y));
    let pr_want = |dev: &Device, plan: &SpmvPlan<f64>| {
        let teleport = (1.0 - DAMPING) / n as f64;
        two_launch_iterates(dev, plan, vec![1.0 / n as f64; n], &params, |tmp, next| {
            scale_add(dev, tmp, DAMPING, teleport, next);
        })
    };
    let pr_solve =
        |dev: &Device, plan: &SpmvPlan<f64>, p: &IterParams| pagerank_gpu(dev, plan, DAMPING, p);

    let rwr_op = rwr_operator(&g);
    let (_, rwr_cpu_iters) = rwr_cpu(&rwr_op, SEED, DAMPING, &params);
    let rwr_want = |dev: &Device, plan: &SpmvPlan<f64>| {
        let mut r0 = vec![0.0; n];
        r0[SEED] = 1.0;
        let restart = [Restart::Seed {
            row: SEED,
            mass: 1.0 - DAMPING,
        }];
        let affine = Affine {
            c: &[DAMPING],
            restart: &restart,
        };
        two_launch_iterates(dev, plan, r0, &params, |tmp, next| {
            rwr_update_multi(dev, &[tmp], &affine, &[next], None);
        })
    };
    let rwr_solve =
        |dev: &Device, plan: &SpmvPlan<f64>, p: &IterParams| rwr_gpu(dev, plan, SEED, DAMPING, p);

    for format in FORMATS {
        check_solver(&pr_op, format, "pagerank", pr_want, pr_solve, pr_cpu);
        check_solver(&rwr_op, format, "rwr", rwr_want, rwr_solve, rwr_cpu_iters);
    }
    set_sim_threads(0);
}

/// A plan whose odd waves launch a ~26 µs padding kernel before the
/// inner plan's wave, so waves alternate long and short.
struct Padded {
    inner: SpmvPlan<f64>,
    waves: Cell<usize>,
}

impl GpuSpmv<f64> for Padded {
    fn name(&self) -> &'static str {
        "padded"
    }
    fn spmv(&self, dev: &Device, x: &DeviceBuffer<f64>, y: &DeviceBuffer<f64>) -> RunReport {
        self.inner.spmv(dev, x, y)
    }
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn device_bytes(&self) -> u64 {
        self.inner.device_bytes()
    }
    fn spmm_affine(
        &self,
        dev: &Device,
        xs: &[&DeviceBuffer<f64>],
        affine: &Affine<'_, f64>,
        partials: bool,
    ) -> AffineWave<f64> {
        self.waves.set(self.waves.get() + 1);
        let pad = if self.waves.get() % 2 == 1 {
            dev.launch("pad", 64, 256, &|blk| {
                blk.for_each_warp(&mut |warp| warp.charge_alu(2000))
            })
        } else {
            RunReport::default()
        };
        let wave = self.inner.spmm_affine(dev, xs, affine, partials);
        AffineWave {
            report: pad.then(&wave.report),
            ..wave
        }
    }
}

/// The durations of a traced solve: each wave's launches folded in
/// record order (a wave ends with its `last_launch`), the partials
/// readbacks, and the scores readback.
struct Durations {
    waves: Vec<f64>,
    partials: Vec<f64>,
    scores: f64,
}

fn durations(spans: &[Span], app: &str, last_launch: &str) -> Durations {
    let (partials_name, scores_name) = (format!("{app}_partials_d2h"), format!("{app}_scores_d2h"));
    let (mut waves, mut partials, mut scores) = (Vec::new(), Vec::new(), Vec::new());
    let mut wave = 0.0f64;
    for s in spans.iter().filter(|s| s.is_top_level()) {
        match s.kind {
            SpanKind::Launch => {
                wave += s.dur_s;
                if s.name == last_launch {
                    waves.push(std::mem::take(&mut wave));
                }
            }
            SpanKind::Transfer if s.name == partials_name => partials.push(s.dur_s),
            SpanKind::Transfer if s.name == scores_name => scores.push(s.dur_s),
            _ => panic!("unexpected span {}", s.name),
        }
    }
    assert_eq!(wave, 0.0, "every launch belongs to a wave");
    assert_eq!(scores.len(), 1, "one scores readback");
    Durations {
        waves,
        partials,
        scores: scores[0],
    }
}

/// Ends of the waves and partials readbacks, 1-based (index 0 is the
/// clock's zero), and the wall time, by the two-engine rule.
struct Timeline {
    wave_end: Vec<f64>,
    readback_end: Vec<f64>,
    wall: f64,
}

fn by_rule(d: &Durations) -> Timeline {
    let n = d.partials.len();
    let mut w = vec![0.0f64; d.waves.len() + 1];
    let mut r = vec![0.0f64; n + 1];
    for k in 1..=d.waves.len() {
        let start = if k >= 3 {
            w[k - 1].max(r[k - 2])
        } else {
            w[k - 1]
        };
        w[k] = start + d.waves[k - 1];
        if k <= n {
            r[k] = w[k].max(r[k - 1]) + d.partials[k - 1];
        }
    }
    let scores_end = r[n] + d.scores;
    let wall = w[d.waves.len()].max(scores_end);
    Timeline {
        wave_end: w,
        readback_end: r,
        wall,
    }
}

fn fold(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, &x| acc + x)
}

/// Which branch of start(w_k) = max(end(w_{k−1}), end(r_{k−2})) a
/// case exercises.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Bound {
    /// Every wave outlasts every readback: the compute engine never
    /// idles, and the wall is Σ waves plus the readbacks' tail.
    Wave,
    /// Every readback outlasts every wave: from wave 3 on, each waits
    /// for the readback two before it, and the copy engine never idles
    /// after wave 1.
    Host,
    /// Waves alternate longer and shorter than the readback
    /// ([`Padded`]): each long wave after the first waits for the
    /// readback two before it, and the discarded (long) wave ends last,
    /// so the wall is the compute engine's end, later than Σ waves by
    /// those waits.
    Mixed,
}

/// Trace `solve`, rebuild its wall time from the spans and check it
/// bit for bit, with the closed form of `bound`'s branch.
fn check_timeline(
    op: &CsrMatrix<f64>,
    format: &str,
    app: &str,
    bound: Bound,
    solve: impl Fn(&Device, &SpmvPlan<f64>) -> SolveResult<f64>,
) {
    let mut dev = Device::new(presets::gtx_titan());
    let mut plan = plan(&dev, op, format);
    if bound == Bound::Mixed {
        let padded = Padded {
            inner: plan,
            waves: Cell::new(0),
        };
        let class = PreprocessClass::Scan;
        plan = SpmvPlan::new("padded", class, Box::new(padded), PreprocessCost::default());
    }
    let ledger = dev.enable_tracing();
    let res = solve(&dev, &plan);
    let what = format!("{app} on {format}, {bound:?}-bound");
    ledger.reconcile().unwrap();
    assert_eq!(ledger.total().counters, res.report.counters, "{what}");
    let d = durations(&ledger.spans(), app, wave_end(format));
    let n = res.iterations;
    assert!(
        n >= 3,
        "{what}: {n} iterations cannot idle the compute engine"
    );
    assert_eq!(d.partials.len(), n, "{what}: one readback per iteration");
    assert_eq!(d.waves.len(), n + 1, "{what}: one discarded wave");

    let t = by_rule(&d);
    assert_eq!(res.wall_s.to_bits(), t.wall.to_bits(), "{what}: wall_s");
    let waves = fold(&d.waves);
    assert!(waves <= res.wall_s, "{what}: Σ waves {waves} > wall");
    assert!(res.wall_s <= res.report.time_s, "{what}: wall > busy");

    let (longest_wave, shortest_wave) = d
        .waves
        .iter()
        .fold((0.0f64, f64::MAX), |(hi, lo), &w| (hi.max(w), lo.min(w)));
    let (longest_readback, shortest_readback) = d
        .partials
        .iter()
        .fold((0.0f64, f64::MAX), |(hi, lo), &r| (hi.max(r), lo.min(r)));
    match bound {
        Bound::Wave => {
            assert!(shortest_wave > longest_readback, "{what}: not wave-bound");
            for k in 2..=n + 1 {
                assert_eq!(
                    t.wave_end[k],
                    t.wave_end[k - 1] + d.waves[k - 1],
                    "{what}: wave {k} waited"
                );
            }
            let body = fold(&d.waves[..n]);
            let tail = body + d.partials[n - 1] + d.scores;
            assert_eq!(res.wall_s, waves.max(tail), "{what}: Σ waves + tail");
        }
        Bound::Host => {
            assert!(longest_wave < shortest_readback, "{what}: not host-bound");
            for k in 3..=n + 1 {
                assert!(
                    t.readback_end[k - 2] > t.wave_end[k - 1],
                    "{what}: wave {k} did not wait for readback {}",
                    k - 2
                );
            }
            let mut copy = vec![d.waves[0]];
            copy.extend(&d.partials);
            copy.push(d.scores);
            assert_eq!(res.wall_s, fold(&copy), "{what}: the copy engine's sum");
            assert!(res.wall_s > waves, "{what}");
        }
        Bound::Mixed => {
            assert_eq!(n % 2, 0, "{what}: the discarded wave must be padded");
            assert!(shortest_wave < shortest_readback, "{what}: no short wave");
            assert!(longest_wave > longest_readback, "{what}: no long wave");
            assert_eq!(
                res.wall_s,
                t.wave_end[n + 1],
                "{what}: the last wave ends last"
            );
            assert!(
                res.wall_s > waves,
                "{what}: the compute engine never waited"
            );
        }
    }
}

#[test]
fn wall_time_follows_the_two_engine_rule() {
    // 8000 rows: waves of 13–21 µs against ~10.1–10.4 µs readbacks;
    // 100 rows: waves of 5–7 µs against 10.0 µs readbacks, and every
    // other one 26 µs longer when padded.
    for (bound, g) in [
        (Bound::Wave, graph(8000, 2000)),
        (Bound::Host, graph(100, 30)),
        (Bound::Mixed, graph(100, 30)),
    ] {
        let pr_op = pagerank_operator(&g);
        let rwr_op = rwr_operator(&g);
        for format in FORMATS {
            check_timeline(&pr_op, format, "pagerank", bound, |dev, plan| {
                pagerank_gpu(dev, plan, DAMPING, &IterParams::default())
            });
            check_timeline(&rwr_op, format, "rwr", bound, |dev, plan| {
                rwr_gpu(dev, plan, SEED, DAMPING, &IterParams::default())
            });
        }
    }
}

/// An `n × n` adjacency with no entries.
fn empty(n: usize) -> CsrMatrix<f64> {
    TripletMatrix::<f64>::new(n, n).to_csr()
}

/// The per-case checks: CPU iterations and scores, finite scores, and
/// a finite, positive wall time no later than the busy time.
fn check_degenerate(what: &str, res: &SolveResult<f64>, cpu: &(Vec<f64>, usize)) {
    assert_eq!(res.iterations, cpu.1, "{what}: iterations");
    assert_eq!(res.scores, cpu.0, "{what}: scores");
    assert!(res.scores.iter().all(|s| s.is_finite()), "{what}: scores");
    assert!(
        res.wall_s.is_finite() && res.wall_s > 0.0,
        "{what}: wall {}",
        res.wall_s
    );
    assert!(res.wall_s <= res.report.time_s, "{what}: wall > busy");
}

#[test]
fn degenerate_operators_solve_through_the_pipeline() {
    let uncapped = IterParams::default();
    let once = IterParams {
        max_iters: 1,
        ..uncapped
    };
    for format in FORMATS {
        for (shape, adjacency, iterations) in [
            ("0×0", empty(0), 1),
            ("5×5 empty", empty(5), 2),
            ("1×1", empty(1), 2),
        ] {
            let op = pagerank_operator(&adjacency);
            let n = op.rows();
            let mut dev = Device::new(presets::gtx_titan());
            let pr_plan = plan(&dev, &op, format);
            for params in [uncapped, once] {
                let what = format!("pagerank, {shape} on {format}, cap {}", params.max_iters);
                let cpu = pagerank_cpu(n, DAMPING, &params, |x, y| op.spmv_into(x, y));
                let res = pagerank_gpu(&dev, &pr_plan, DAMPING, &params);
                check_degenerate(&what, &res, &cpu);
                assert_eq!(res.iterations, iterations.min(params.max_iters), "{what}");
            }
            if n == 0 {
                continue;
            }
            let op = rwr_operator(&adjacency);
            let rwr_plan = plan(&dev, &op, format);
            for params in [uncapped, once] {
                let what = format!("rwr, {shape} on {format}, cap {}", params.max_iters);
                let res = rwr_gpu(&dev, &rwr_plan, n - 1, DAMPING, &params);
                check_degenerate(&what, &res, &rwr_cpu(&op, n - 1, DAMPING, &params));
            }
            // A solve capped at one iteration launches no wave past it:
            // one wave, one readback, then the scores, all serial.
            let ledger = dev.enable_tracing();
            let res = rwr_gpu(&dev, &rwr_plan, 0, DAMPING, &once);
            let waves = ledger
                .spans()
                .iter()
                .filter(|s| s.kind == SpanKind::Launch && s.name == wave_end(format))
                .count();
            assert_eq!(waves, 1, "{shape} on {format}: waves");
            assert_eq!(res.wall_s, res.report.time_s, "{shape} on {format}: serial");
        }
    }
}
