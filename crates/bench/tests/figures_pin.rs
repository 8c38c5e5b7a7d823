//! Pins the data behind every figure: the JSON documents `casbn figures
//! --fig all --scale 0.05 --json DIR` writes (each figure's series,
//! pretty-printed by `serde_json`), hashed one figure at a time. Only
//! fig10's wall-clock column is left out, set to 0 before hashing: it is
//! the one field that changes from run to run. Figs. 9–11 and the
//! in-text results carry AEES values and dominant terms, so a change to
//! the enrichment scorer that moves any of their bits fails here.
//!
//! A deliberate change to a figure's data re-pins its row: the failure
//! message prints every figure's hash.

use casbn_bench::figures::{
    fig10, fig11, fig3, fig4, fig5, fig67, fig8, fig9, text_stats, FigureRunner,
};
use casbn_store::fnv1a;

/// Scale of the CI figures smoke.
const SCALE: f64 = 0.05;

/// FNV-1a of each figure's pretty JSON, in the order `casbn figures`
/// writes them.
const PINS: &[(&str, u64)] = &[
    ("fig3", 10512573604204146121),
    ("fig4", 5038482623751081477),
    ("fig5", 10770281489641639620),
    ("fig67", 13547319250658250495),
    ("fig8", 8844495489272186817),
    ("fig9", 14266216877421468499),
    ("fig10", 12443640899565427949),
    ("fig11", 15798182477696234568),
    ("text_stats", 6719696291046072972),
];

fn json<T: serde::Serialize>(data: &T) -> String {
    serde_json::to_string_pretty(data).expect("figure data serialises")
}

#[test]
fn figure_json_matches_pins() {
    let mut runner = FigureRunner::new(SCALE);
    let f67 = fig67(&mut runner);
    let mut f10 = fig10(&mut runner, &[1, 2, 4, 8, 16, 32, 64]);
    for point in f10
        .networks
        .values_mut()
        .flatten()
        .flat_map(|series| &mut series.points)
    {
        point.2 = 0.0;
    }
    let got = [
        ("fig3", json(&fig3(&mut runner))),
        ("fig4", json(&fig4(&mut runner))),
        ("fig5", json(&fig5(&mut runner))),
        ("fig67", json(&f67)),
        ("fig8", json(&fig8(&f67))),
        ("fig9", json(&fig9(&mut runner))),
        ("fig10", json(&f10)),
        ("fig11", json(&fig11(&mut runner))),
        ("text_stats", json(&text_stats(&mut runner))),
    ]
    .map(|(name, text)| (name, fnv1a(text.as_bytes())));
    assert_eq!(got.as_slice(), PINS, "figure JSON hashes drifted");
}
