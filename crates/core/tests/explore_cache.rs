//! The exploration cache's two contracts:
//!
//! * **byte identity** — a warm (fully cached) sweep emits JSON
//!   byte-identical to the cold sweep that populated the cache, across
//!   random problem sizes and lane menus;
//! * **resumability** — an interrupted sweep (simulated by truncating
//!   the cache file mid-way) re-evaluates exactly the missing points
//!   on the next run and converges to the same bytes.

use std::fs;
use std::path::PathBuf;

use fft2d::{Architecture, ExploreCache, System, CACHE_VERSION};
use sim_exec::ExecConfig;
use sim_util::hash::StableHasher;
use sim_util::{par_check, prop_assert, prop_assert_eq};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fft2d_explore_cache_{tag}_{}.jsonl",
        std::process::id()
    ))
}

#[test]
fn warm_sweep_is_all_hits_and_byte_identical() {
    par_check!(cases: 8, |rng| {
        let n = [32usize, 64, 128][rng.gen_range(0usize..3)];
        let lanes: &[usize] = if rng.gen_range(0u32..2) == 0 {
            &[4, 8]
        } else {
            &[8, 16]
        };
        let sys = System::default();
        let exec = ExecConfig::sequential();
        let mut cache = ExploreCache::in_memory();

        let (cold, cold_stats) = sys
            .explore_cached(&exec, n, lanes, &mut cache)
            .map_err(|e| format!("cold sweep failed: {e}"))?;
        prop_assert_eq!(cold_stats.hits, 0, "first sweep cannot hit (n = {n})");
        prop_assert!(cold_stats.misses > 0, "sweep must evaluate points (n = {n})");
        prop_assert_eq!(cache.len(), cold_stats.misses);

        let (warm, warm_stats) = sys
            .explore_cached(&exec, n, lanes, &mut cache)
            .map_err(|e| format!("warm sweep failed: {e}"))?;
        prop_assert_eq!(
            warm_stats.hits,
            cold_stats.misses,
            "every evaluated point must replay from the cache (n = {n})"
        );
        prop_assert_eq!(warm_stats.misses, 0, "warm sweep must not simulate (n = {n})");
        prop_assert_eq!(
            warm_stats.uncacheable,
            cold_stats.uncacheable,
            "skips/failures are re-derived identically (n = {n})"
        );
        prop_assert_eq!(
            warm.to_json(),
            cold.to_json(),
            "warm output must be byte-identical (n = {n}, lanes {lanes:?})"
        );
    });
}

#[test]
fn truncated_cache_resumes_with_only_missing_points() {
    let path = temp_path("resume");
    let _ = fs::remove_file(&path);

    let sys = System::default();
    let exec = ExecConfig::sequential();
    let n = 64;
    let lanes = [4usize, 8];

    let mut cache = ExploreCache::open(&path).expect("creates cache file lazily");
    let (cold, cold_stats) = sys
        .explore_cached(&exec, n, &lanes, &mut cache)
        .expect("cold sweep");
    let total = cold_stats.misses;
    assert!(total >= 2, "need at least two cached points to truncate");

    let text = fs::read_to_string(&path).expect("cache file written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), total, "one JSONL line per evaluated point");

    // Simulate an interrupt: keep only the first half of the file
    // (plus a torn final line, which a resuming open must skip).
    let keep = total / 2;
    let mut truncated = lines[..keep].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[keep][..lines[keep].len() / 2]);
    fs::write(&path, &truncated).expect("truncate cache");

    let mut resumed = ExploreCache::open(&path).expect("reopen survives torn line");
    assert_eq!(resumed.len(), keep, "torn line is skipped, not fatal");

    let (replay, stats) = sys
        .explore_cached(&exec, n, &lanes, &mut resumed)
        .expect("resumed sweep");
    assert_eq!(stats.hits, keep, "surviving points replay");
    assert_eq!(
        stats.misses,
        total - keep,
        "only the lost points are re-evaluated"
    );
    assert_eq!(
        replay.to_json(),
        cold.to_json(),
        "resume converges to the same bytes"
    );

    // The file is healed: every point is present again for the next run.
    let healed = ExploreCache::open(&path).expect("reopen healed cache");
    assert_eq!(healed.len(), total);

    let _ = fs::remove_file(&path);
}

#[test]
fn column_phase_cache_round_trips() {
    let sys = System::default();
    let mut cache = ExploreCache::in_memory();
    for arch in [Architecture::Baseline, Architecture::Optimized] {
        let (cold, cold_hit) = sys
            .column_phase_cached(&mut cache, arch, 64)
            .expect("cold column phase");
        assert!(!cold_hit, "first run simulates");
        let (warm, warm_hit) = sys
            .column_phase_cached(&mut cache, arch, 64)
            .expect("warm column phase");
        assert!(warm_hit, "second run replays");
        assert_eq!(warm, cold, "cached result is exact");
    }
}

/// The cache guard. A cached point is invalidated only when
/// `CACHE_VERSION` changes, so any change to a simulated result must
/// come with a bump, or warm sweeps replay stale numbers. This digest
/// of a small fixed sweep catches a model-visible change made without
/// one: when it fails, bump `CACHE_VERSION` and re-pin both values
/// together.
#[test]
fn cache_version_pins_the_simulated_results() {
    let sys = System::default();
    let exec = ExecConfig::sequential();
    let mut h = StableHasher::new();
    for n in [64, 128] {
        let sweep = sys.explore_with(&exec, n, &[4, 8]).expect("sweep");
        h.write_str(&sweep.to_json());
    }
    assert_eq!(
        (CACHE_VERSION, format!("{:016x}", h.finish())),
        (1, "9a8e9b90dc7300cd".to_string()),
        "simulated results moved under the same CACHE_VERSION"
    );
}
