//! Table-sharing contract across the stack: one codec table set per
//! `(CodeKind, data_bits)` pair and one bank-scheme table set per
//! `TwoDConfig`, no matter how many banks, arrays, or caches are built.
//!
//! All registry-delta assertions live in ONE test function: the counters
//! are process-global and tests in a binary run in parallel, so spreading
//! deltas across `#[test]`s would race.

use std::sync::Arc;
use twod_cache::{CacheConfig, ConcurrentBankedCache, ProtectedCache, TwoDScheme};

/// A scheme with a word width unique to this test binary, so registry
/// deltas measured here cannot be perturbed by other tests.
fn scheme_32() -> TwoDScheme {
    TwoDScheme {
        horizontal: ecc::CodeKind::Edc(8),
        data_bits: 32,
        interleave: 4,
        vertical_rows: 16,
    }
}

#[test]
fn codec_and_scheme_tables_are_shared_across_the_stack() {
    // --- data and tag arrays with coinciding schemes share one codec ---
    let cache = ProtectedCache::new(CacheConfig {
        sets: 16,
        ways: 2,
        data_scheme: scheme_32(),
        tag_scheme: scheme_32(),
    });
    let data_codec = cache.data_array().scheme().codec();
    let tag_codec = cache.tag_array().scheme().codec();
    assert!(
        Arc::ptr_eq(data_codec, tag_codec),
        "coinciding data/tag schemes must share one Arc<dyn Code>"
    );
    // The bank geometries differ (data rows != tag rows), so the bank
    // schemes are distinct — only the codec underneath is shared.
    assert!(!Arc::ptr_eq(
        cache.data_array().scheme(),
        cache.tag_array().scheme()
    ));

    // --- construction counts: N banks cost zero additional table sets ---
    let codec_builds_before = ecc::shared_codec_builds();
    let scheme_builds_before = memarray::shared_scheme_builds();
    let banked = ConcurrentBankedCache::new(
        CacheConfig {
            sets: 16,
            ways: 2,
            data_scheme: scheme_32(),
            tag_scheme: scheme_32(),
        },
        8,
    );
    // The single cache above already built the codec and both bank
    // schemes (data geometry + tag geometry); eight more banks of the
    // same config must not build anything.
    assert_eq!(
        ecc::shared_codec_builds(),
        codec_builds_before,
        "8-bank construction must reuse the existing codec tables"
    );
    assert_eq!(
        memarray::shared_scheme_builds(),
        scheme_builds_before,
        "8-bank construction must reuse the existing bank schemes"
    );
    // Every bank's data array runs on literally the same scheme (and the
    // first cache's, too).
    let scheme0 = Arc::clone(banked.lock_bank(0).data_array().scheme());
    for bank in 1..banked.banks() {
        assert!(
            Arc::ptr_eq(&scheme0, banked.lock_bank(bank).data_array().scheme()),
            "bank {bank} duplicated the shared scheme"
        );
    }
    assert!(Arc::ptr_eq(&scheme0, cache.data_array().scheme()));

    // --- a genuinely new width does build exactly one codec ---
    let before = ecc::shared_codec_builds();
    let wide = TwoDScheme {
        horizontal: ecc::CodeKind::Edc(8),
        data_bits: 128,
        interleave: 2,
        vertical_rows: 16,
    };
    let one = ProtectedCache::new(CacheConfig {
        sets: 16,
        ways: 2,
        data_scheme: wide,
        tag_scheme: wide,
    });
    assert_eq!(
        ecc::shared_codec_builds(),
        before + 1,
        "one fresh (kind, width) pair must cost exactly one codec build"
    );
    drop(one);
}
