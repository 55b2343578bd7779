//! Banked L2 demonstration: a multi-bank 2D-protected cache contains a
//! large error inside one bank while the other banks keep serving, and
//! the MESI sharing model shows where the paper's dirty L1-to-L1
//! transfer traffic comes from.
//!
//! Run with: `cargo run --release --example banked_l2`

use cachesim::trace::SharingModel;
use memarray::ErrorShape;
use twod_cache::{CacheConfig, ConcurrentBankedCache};

fn main() {
    // An 8-bank protected cache (each bank a 64kB 2D-protected array).
    let l2 = ConcurrentBankedCache::new(CacheConfig::l1_64kb(), 8);
    println!("built {l2:?} ({} KiB total)", l2.capacity() / 1024);

    // Spread a working set over all banks.
    for i in 0..2048u64 {
        l2.write(i * 8, i.rotate_left(17) ^ 0x5555).unwrap();
    }

    // A massive clustered upset strikes bank 3.
    l2.inject_bank_error(
        3,
        ErrorShape::Cluster {
            row: 0,
            col: 0,
            height: 32,
            width: 32,
        },
    );
    println!("injected a 32x32 clustered error into bank 3");

    // All data still reads correctly; only bank 3 pays a recovery.
    for i in 0..2048u64 {
        assert_eq!(l2.read(i * 8).unwrap(), i.rotate_left(17) ^ 0x5555);
    }
    for bank in 0..8 {
        let recoveries = l2.lock_bank(bank).data_engine_stats().recoveries;
        println!("  bank {bank}: {recoveries} recovery invocation(s)");
    }
    assert!(l2.audit());
    println!("audit clean — the error never left bank 3\n");

    // Where the paper's L1-to-L1 dirty transfers come from: sharing.
    println!("MESI sharing sweep (4 cores, 30% writes):");
    println!("  {:<14} {:>24}", "shared frac", "dirty-transfer frac");
    for p_shared in [0.0, 0.1, 0.25, 0.5] {
        let model = SharingModel {
            cores: 4,
            shared_lines: 64,
            private_lines: 4096,
            p_shared,
            p_write: 0.3,
        };
        let f = model.dirty_transfer_fraction(60_000, 11);
        println!("  {p_shared:<14.2} {f:>24.3}");
    }
    println!(
        "\nEach dirty transfer is a write into the receiving L1 — under 2D\n\
         coding, one more read-before-write the port-stealing scheduler hides."
    );
}
