//! Boundary differential test of the fused co-moment sweep: on inputs
//! built to sit on the edges of its division-free rejection test,
//! `OnlineCorrelation::ingest` must equal a naive reference bit for bit
//! at 1/2/4/8 worker threads.
//!
//! The reference applies the Welford recurrences one sample at a time
//! and then evaluates every pair with `C / (√M2ᵢ·√M2ⱼ)` and
//! `pearson_p_value`. The inputs are constant genes, duplicated genes
//! (ρ at or next to 1), genes scaled into the subnormal range and by
//! 1e150 (outside the rejection test's safe `sd` range) and by 1e±70
//! (inside it), planted modules whose ρ spread across every threshold,
//! `min_rho` set to the exact bits of 60 computed ρ, `min_rho` of 0 and
//! below 0, `max_p` of 1 and of 1e-12, and several batch splits, one
//! with an empty batch. A driver resumed from a checkpoint must replay
//! its samples into the reference's network and ρ at every thread
//! count, and refuse a checkpoint whose chordal subgraph or edge count
//! the replayed network contradicts.
//!
//! One `#[test]` only: the rayon thread override is process-global.

use casbn_expr::{pearson_p_value, ExpressionMatrix, NetworkParams};
use casbn_store::{SectionKind, Store, StoreWriter};
use casbn_stream::{OnlineCorrelation, StreamConfig, StreamDriver};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Genes per matrix: 520 genes make 134,940 pairs, three row blocks on
/// the parallel path.
const GENES: usize = 520;
const SAMPLES: usize = 10;
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// The rows scaled into the subnormal range.
const SUBNORMAL: std::ops::Range<usize> = 9..17;

/// A genes × samples matrix of special rows, planted modules and noise.
fn boundary_matrix(seed: u64) -> ExpressionMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut noise = |scale: f64| -> Vec<f64> {
        (0..SAMPLES)
            .map(|_| rng.gen_range(-1.0..1.0) * scale)
            .collect()
    };
    let base = noise(1.0);
    let mut rows: Vec<Vec<f64>> = vec![
        base.clone(),
        base.clone(),                                 // exact duplicate
        base.iter().map(|x| 3.0 * x + 7.0).collect(), // affine duplicate
        base.iter().map(|x| -x).collect(),            // sign flip
        vec![5.0; SAMPLES],                           // constant
        vec![0.0; SAMPLES],                           // constant zero
        base.iter().map(|x| x * 1e150).collect(),     // sd above the safe range
        base.iter().map(|x| x * 1e-70).collect(),     // tiny, inside it
        base.iter().map(|x| x * 1e70).collect(),      // huge, inside it
    ];
    // subnormal M2 and C: noisy copies of `base`, so their pairs' ρ
    // carry independent rounding errors
    for scale in [
        1e-160, 3e-161, 7e-162, 2e-161, 5e-161, 1.3e-160, 9e-162, 4e-161,
    ] {
        let e = noise(0.05);
        rows.push(base.iter().zip(&e).map(|(b, e)| (b + e) * scale).collect());
    }
    // modules: a profile plus noise of rising amplitude, so the members'
    // ρ spread across every threshold below
    for _ in 0..6 {
        let profile = noise(1.0);
        for amp in [0.01, 0.03, 0.1, 0.2, 0.3, 0.5, 0.8] {
            let e = noise(amp);
            rows.push(profile.iter().zip(&e).map(|(p, e)| p + e).collect());
        }
    }
    while rows.len() < GENES {
        rows.push(noise(1.0));
    }
    ExpressionMatrix::from_rows(GENES, SAMPLES, rows.concat())
}

/// The naive accumulator: sequential Welford over single samples, then
/// every pair through the exact predicate.
struct Reference {
    params: NetworkParams,
    n: usize,
    mean: Vec<f64>,
    m2: Vec<f64>,
    comoment: Vec<f64>,
    present: Vec<bool>,
}

impl Reference {
    fn new(params: NetworkParams) -> Reference {
        Reference {
            params,
            n: 0,
            mean: vec![0.0; GENES],
            m2: vec![0.0; GENES],
            comoment: vec![0.0; GENES * (GENES - 1) / 2],
            present: vec![false; GENES * (GENES - 1) / 2],
        }
    }

    fn rho(&self, i: usize, j: usize, idx: usize) -> f64 {
        let denom = self.m2[i].sqrt() * self.m2[j].sqrt();
        if denom > 0.0 {
            self.comoment[idx] / denom
        } else {
            0.0
        }
    }

    /// Ingest `batch`; returns the (inserts, removes) in canonical order.
    #[allow(clippy::type_complexity)]
    fn ingest(&mut self, batch: &ExpressionMatrix) -> (Vec<(u32, u32)>, Vec<(u32, u32)>) {
        for s in 0..batch.samples() {
            self.n += 1;
            let n = self.n as f64;
            let mut d = vec![0.0; GENES];
            let mut d2 = vec![0.0; GENES];
            for g in 0..GENES {
                let x = batch.row(g)[s];
                d[g] = x - self.mean[g];
                self.mean[g] += d[g] / n;
                d2[g] = x - self.mean[g];
                self.m2[g] += d[g] * d2[g];
            }
            let mut c = self.comoment.iter_mut();
            for (i, di) in d.iter().enumerate() {
                for d2j in &d2[i + 1..] {
                    *c.next().expect("one co-moment per pair") += di * d2j;
                }
            }
        }
        let (mut inserts, mut removes) = (Vec::new(), Vec::new());
        let mut idx = 0;
        for i in 0..GENES {
            for j in (i + 1)..GENES {
                let rho = self.rho(i, j, idx);
                let keep =
                    rho >= self.params.min_rho && pearson_p_value(rho, self.n) <= self.params.max_p;
                if keep != self.present[idx] {
                    self.present[idx] = keep;
                    let e = (i as u32, j as u32);
                    if keep {
                        inserts.push(e);
                    } else {
                        removes.push(e);
                    }
                }
                idx += 1;
            }
        }
        (inserts, removes)
    }

    /// Retained edges with their ρ, canonical order.
    fn weights(&self) -> Vec<((u32, u32), f64)> {
        let mut out = Vec::new();
        let mut idx = 0;
        for i in 0..GENES {
            for j in (i + 1)..GENES {
                if self.present[idx] {
                    out.push(((i as u32, j as u32), self.rho(i, j, idx)));
                }
                idx += 1;
            }
        }
        out
    }
}

/// Column ranges of a batch split (sizes may be 0).
fn windows(split: &[usize]) -> Vec<(usize, usize)> {
    let mut lo = 0;
    split
        .iter()
        .map(|&k| {
            lo += k;
            (lo - k, lo)
        })
        .collect()
}

fn same_weights(a: &[((u32, u32), f64)], b: &[((u32, u32), f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Stream `m` through the reference and through `OnlineCorrelation` at
/// every thread count; every delta and every accumulator bit must agree.
fn check_stream(m: &ExpressionMatrix, params: NetworkParams, split: &[usize], what: &str) {
    let mut reference = Reference::new(params);
    let expected: Vec<_> = windows(split)
        .into_iter()
        .map(|(lo, hi)| reference.ingest(&m.columns(lo, hi)))
        .collect();
    let ref_weights = reference.weights();
    for threads in THREADS {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let ctx = format!("{what}, split {split:?}, {threads} threads");
        let mut oc = OnlineCorrelation::new(GENES, params);
        for (w, (lo, hi)) in windows(split).into_iter().enumerate() {
            let delta = oc.ingest(&m.columns(lo, hi));
            assert_eq!(delta.inserts, expected[w].0, "{ctx}: window {w} inserts");
            assert_eq!(delta.removes, expected[w].1, "{ctx}: window {w} removes");
        }
        assert_eq!(oc.samples(), reference.n, "{ctx}");
        for g in 0..GENES {
            assert_eq!(
                oc.mean(g).to_bits(),
                reference.mean[g].to_bits(),
                "{ctx}: mean {g}"
            );
            assert_eq!(
                oc.m2(g).to_bits(),
                reference.m2[g].to_bits(),
                "{ctx}: m2 {g}"
            );
        }
        let mut idx = 0;
        for i in 0..GENES {
            for j in (i + 1)..GENES {
                assert_eq!(
                    oc.co_moment(i, j).to_bits(),
                    reference.comoment[idx].to_bits(),
                    "{ctx}: C({i},{j})"
                );
                assert_eq!(
                    oc.network().has_edge(i as u32, j as u32),
                    reference.present[idx],
                    "{ctx}: present({i},{j})"
                );
                idx += 1;
            }
        }
        assert_eq!(oc.network().m(), ref_weights.len(), "{ctx}: edges");
        assert!(same_weights(&oc.weights(), &ref_weights), "{ctx}: weights");
        let g = oc.network();
        assert!(
            ref_weights.iter().all(|&((u, v), _)| g.has_edge(u, v)),
            "{ctx}: graph"
        );
    }
}

/// The driver's network edges with their ρ, canonical order.
fn driver_weights(driver: &StreamDriver) -> Vec<((u32, u32), f64)> {
    driver
        .network()
        .edges()
        .map(|(u, v)| ((u, v), driver.rho(u, v)))
        .collect()
}

/// `ck` with the payload of its `kind` section rewritten by `edit`,
/// checksums recomputed.
fn with_section(ck: &[u8], kind: SectionKind, edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    let store = Store::parse(ck).expect("checkpoint parses");
    let mut w = StoreWriter::new();
    for (s, entry) in store.sections().iter().enumerate() {
        let k = SectionKind::from_u32(entry.kind).expect("known section kind");
        let mut payload = store.payload(s).to_vec();
        if k == kind {
            edit(&mut payload);
        }
        w.add(k, entry.tag, payload);
    }
    w.to_bytes()
}

/// The resume error of a tampered checkpoint.
fn resume_error(bytes: &[u8]) -> String {
    match StreamDriver::resume_from(&Store::parse(bytes).expect("tampered checkpoint parses")) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("a tampered checkpoint must not resume"),
    }
}

/// A checkpoint resumed at every thread count replays its samples into
/// the reference's exact network and ρ, and the next window's delta is
/// the reference's. A chordal-subgraph edge the replayed network lacks,
/// and an edge count the replay does not reproduce, fail the resume.
fn check_resume_replay(m: &ExpressionMatrix, params: NetworkParams) {
    let cfg = StreamConfig {
        network: params,
        ..Default::default()
    };
    let mut driver = StreamDriver::new(GENES, cfg);
    let mut reference = Reference::new(params);
    for (lo, hi) in [(0, 4), (4, 7)] {
        driver.ingest_window(&m.columns(lo, hi));
        reference.ingest(&m.columns(lo, hi));
    }
    let truth = reference.weights();
    assert!(truth.len() > 10, "the resumed network must be non-trivial");
    let ck = driver.checkpoint_bytes().expect("checkpoint serialises");
    let absent = reference
        .present
        .iter()
        .position(|&p| !p)
        .expect("some pair is not retained");
    let (inserts, removes) = reference.ingest(&m.columns(7, SAMPLES));
    assert!(!inserts.is_empty() || !removes.is_empty());
    let after = reference.weights();
    for threads in THREADS {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let store = Store::parse(&ck).expect("checkpoint parses");
        let mut resumed = StreamDriver::resume_from(&store).expect("checkpoint resumes");
        assert!(
            same_weights(&driver_weights(&resumed), &truth),
            "{threads} threads: replayed weights"
        );
        let report = resumed.ingest_window(&m.columns(7, SAMPLES));
        assert_eq!(report.inserts, inserts.len(), "{threads} threads: inserts");
        assert_eq!(report.removes, removes.len(), "{threads} threads: removes");
        assert!(
            same_weights(&driver_weights(&resumed), &after),
            "{threads} threads: weights after the next window"
        );
    }

    // a chordal subgraph holding a pair the replayed network lacks
    let (mut i, mut rest) = (0usize, absent);
    while rest >= GENES - i - 1 {
        rest -= GENES - i - 1;
        i += 1;
    }
    let outside = (i as u32, (i + 1 + rest) as u32);
    let mut h = driver.chordal().clone();
    assert!(h.add_edge(outside.0, outside.1));
    let store = Store::parse(&ck).expect("checkpoint parses");
    let mut w = StoreWriter::new();
    for (s, entry) in store.sections().iter().enumerate() {
        match SectionKind::from_u32(entry.kind).expect("known section kind") {
            SectionKind::Graph => casbn_graph::store::add_graph(&mut w, entry.tag, &h),
            kind => w.add(kind, entry.tag, store.payload(s).to_vec()),
        }
    }
    let err = resume_error(&w.to_bytes());
    assert!(err.contains("not a subgraph"), "{err}");
    // an edge count the replay does not reproduce (word 5)
    let miscounted = with_section(&ck, SectionKind::StreamSamples, |p| {
        p[40..48].copy_from_slice(&(truth.len() as u64 - 1).to_le_bytes())
    });
    let err = resume_error(&miscounted);
    assert!(err.contains("edges"), "{err}");
}

#[test]
fn fused_sweep_matches_the_naive_reference_bit_for_bit() {
    let m = boundary_matrix(11);
    let splits: [&[usize]; 3] = [&[10], &[2, 2, 2, 2, 2], &[1, 3, 0, 4, 2]];
    let p = |min_rho, max_p| NetworkParams { min_rho, max_p };
    let cases = [
        ("paper cut", p(0.95, 5e-4)),
        ("loose cut", p(0.7, 0.05)),
        ("min_rho 0, max_p 1", p(0.0, 1.0)),
        ("min_rho < 0", p(-0.3, 0.01)),
        ("everything", p(-1.0, 1.0)),
        ("max_p 1e-12", p(0.5, 1e-12)),
    ];
    // min_rho on the exact bits of a final ρ: that pair sits on the cut
    // in the last window. The subnormal pairs' ρ carry rounding errors
    // far beyond the cut's margin; the module pairs' do not.
    let mut full = Reference::new(p(-1.0, 1.0));
    full.ingest(&m);
    let rho_of = |i: usize, j: usize| {
        full.weights()
            .into_iter()
            .find(|&(e, _)| e == (i as u32, j as u32))
            .map(|(_, rho)| rho)
            .expect("every pair is retained at min_rho -1")
    };
    let mut on_cut: Vec<f64> = Vec::new();
    for i in SUBNORMAL {
        for j in (i + 1)..SUBNORMAL.end {
            on_cut.push(rho_of(i, j));
        }
    }
    on_cut.extend(
        full.weights()
            .into_iter()
            .map(|(_, rho)| rho)
            .filter(|&rho| rho > 0.3 && rho < 0.999)
            .take(32),
    );
    assert_eq!(
        on_cut.len(),
        60,
        "enough planted pairs land between 0.3 and 0.999"
    );
    for (what, params) in cases {
        for split in splits {
            check_stream(&m, params, split, what);
        }
    }
    for split in splits {
        check_stream(&m, p(on_cut[3], 1.0), split, "min_rho on a computed ρ");
    }
    for &rho in &on_cut {
        check_stream(&m, p(rho, 1.0), &[10], "min_rho on a computed ρ");
    }
    check_resume_replay(&m, p(0.7, 0.05));
    std::env::remove_var("RAYON_NUM_THREADS");
}
