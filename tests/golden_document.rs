//! The checked-in oracle for "every rendered byte unchanged": the full
//! experiments document at the tiny preset, exactly as
//! `ALIAS_SCALE=tiny cargo run --release -p alias-bench --bin run_all`
//! writes `EXPERIMENTS_MEASURED.md` (which is git-ignored, so without this
//! file "byte-identical to HEAD" has no referent).
//!
//! A change that moves a byte on purpose regenerates the golden file with
//! that command and explains the diff; any other change must leave it be.

use alias_bench::{render_document_with_study, Experiment, RateLimitStudy};
use alias_resolution::prelude::ScalePreset;

const SEED: u64 = 20230418;
const GOLDEN: &str = include_str!("golden/experiments_tiny.md");
/// `RateLimitStudy::run(Tiny, 7, 1).render()`: the eight-technique study on
/// a second seed, where the probing baselines and all their agreement rows
/// see a different population than the document's.
const GOLDEN_STUDY_SEED_7: &str = include_str!("golden/ratelimit_study_tiny_seed7.txt");

#[test]
fn tiny_document_matches_the_golden_file_at_every_thread_count() {
    for threads in [1usize, 2, 7] {
        let experiment = Experiment::run_with_threads(ScalePreset::Tiny, SEED, threads);
        let study = RateLimitStudy::run(ScalePreset::Tiny, SEED, threads);
        let document = render_document_with_study(&experiment, ScalePreset::Tiny, &study);
        assert!(
            document == GOLDEN,
            "the rendered document drifted from tests/golden/experiments_tiny.md at \
             {threads} thread(s); first differing line: {:?}",
            document
                .lines()
                .zip(GOLDEN.lines())
                .find(|(rendered, golden)| rendered != golden)
        );
    }
}

#[test]
fn tiny_study_on_seed_7_matches_its_golden_file() {
    let rendered = RateLimitStudy::run(ScalePreset::Tiny, 7, 1).render();
    assert!(
        rendered == GOLDEN_STUDY_SEED_7,
        "the rendered study drifted from tests/golden/ratelimit_study_tiny_seed7.txt:\n{rendered}"
    );
}
