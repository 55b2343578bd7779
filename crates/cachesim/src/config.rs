//! System configurations: the paper's two CMP design points (Table 1) and
//! the 2D-protection policy knobs swept in Figure 5.

/// Which CMP design point to simulate (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpKind {
    /// Four 4-wide out-of-order cores, 2-port L1D, 16MB shared L2.
    Fat,
    /// Eight 2-wide in-order 4-thread cores, 1-port L1D, 4MB shared L2.
    Lean,
}

/// Full system configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemConfig {
    /// Which design point.
    pub kind: CmpKind,
    /// Number of cores.
    pub cores: usize,
    /// Hardware threads per core (1 = single-threaded).
    pub threads_per_core: usize,
    /// Maximum instructions committed per core per cycle.
    pub issue_width: usize,
    /// L1 data cache ports.
    pub l1d_ports: usize,
    /// Store queue entries per core.
    pub store_queue: usize,
    /// L1 hit latency in cycles.
    pub l1_hit_cycles: u64,
    /// L2 hit latency in cycles (including crossbar).
    pub l2_hit_cycles: u64,
    /// Number of L2 banks.
    pub l2_banks: usize,
    /// Cycles one L2 bank is busy per access (64B line transfer).
    pub l2_bank_occupancy: u64,
    /// Main-memory latency in cycles.
    pub memory_cycles: u64,
    /// Outstanding-miss registers (MSHRs) shared per system.
    pub mshrs: usize,
    /// Circuit-level atomic read-write support: the old-data read and the
    /// new-data write share one array access (the paper cites quad-core
    /// Opteron-style atomic read-write as a further mitigation), so
    /// read-before-write costs a single port slot.
    pub atomic_rbw: bool,
    /// Effective miss-overlap factor: how many outstanding misses the
    /// core architecture hides (OoO window / SMT threads).
    pub miss_overlap: f64,
}

impl SystemConfig {
    /// The paper's fat CMP: 4 OoO cores at 4GHz, 4-wide, 2-port L1D,
    /// 16MB L2 (16-cycle hit + 1-cycle crossbar), 60ns memory.
    pub fn fat_cmp() -> Self {
        SystemConfig {
            kind: CmpKind::Fat,
            cores: 4,
            threads_per_core: 1,
            issue_width: 4,
            l1d_ports: 2,
            store_queue: 64,
            l1_hit_cycles: 2,
            l2_hit_cycles: 17,
            l2_banks: 8,
            l2_bank_occupancy: 2,
            memory_cycles: 240,
            mshrs: 64,
            atomic_rbw: false,
            miss_overlap: 4.0,
        }
    }

    /// The paper's lean CMP: 8 in-order 4-thread cores, 2-wide, 1-port
    /// L1D, 4MB L2 (12-cycle hit + 1-cycle crossbar).
    pub fn lean_cmp() -> Self {
        SystemConfig {
            kind: CmpKind::Lean,
            cores: 8,
            threads_per_core: 4,
            issue_width: 2,
            l1d_ports: 1,
            store_queue: 64,
            l1_hit_cycles: 2,
            l2_hit_cycles: 13,
            l2_banks: 8,
            l2_bank_occupancy: 2,
            memory_cycles: 240,
            mshrs: 64,
            atomic_rbw: false,
            miss_overlap: 4.0,
        }
    }
}

/// Which caches carry 2D protection and whether the L1 read-before-write
/// reads are scheduled into idle port cycles (port stealing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ProtectionPolicy {
    /// L1 data caches issue read-before-write on every store/fill.
    pub protect_l1: bool,
    /// Defer the L1 extra reads into idle port slots.
    pub port_stealing: bool,
    /// L2 banks issue read-before-write on every write-type access.
    pub protect_l2: bool,
}

impl ProtectionPolicy {
    /// No protection (baseline).
    pub fn baseline() -> Self {
        ProtectionPolicy::default()
    }

    /// L1-only protection, no port stealing (Fig. 5 first bar).
    pub fn l1_only() -> Self {
        ProtectionPolicy {
            protect_l1: true,
            port_stealing: false,
            protect_l2: false,
        }
    }

    /// L1-only protection with port stealing (Fig. 5 second bar).
    pub fn l1_steal() -> Self {
        ProtectionPolicy {
            protect_l1: true,
            port_stealing: true,
            protect_l2: false,
        }
    }

    /// L2-only protection (Fig. 5 third bar).
    pub fn l2_only() -> Self {
        ProtectionPolicy {
            protect_l1: false,
            port_stealing: false,
            protect_l2: true,
        }
    }

    /// Full protection with port stealing (Fig. 5 fourth bar).
    pub fn full() -> Self {
        ProtectionPolicy {
            protect_l1: true,
            port_stealing: true,
            protect_l2: true,
        }
    }

    /// The four protected configurations of Figure 5, in bar order.
    pub fn figure5_set() -> [ProtectionPolicy; 4] {
        [
            Self::l1_only(),
            Self::l1_steal(),
            Self::l2_only(),
            Self::full(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameters() {
        let fat = SystemConfig::fat_cmp();
        assert_eq!(fat.cores, 4);
        assert_eq!(fat.issue_width, 4);
        assert_eq!(fat.l1d_ports, 2);
        assert_eq!(fat.store_queue, 64);
        let lean = SystemConfig::lean_cmp();
        assert_eq!(lean.cores, 8);
        assert_eq!(lean.threads_per_core, 4);
        assert_eq!(lean.l1d_ports, 1);
        assert!(lean.l2_hit_cycles < fat.l2_hit_cycles);
        assert_eq!(fat.mshrs, 64);
        assert_eq!(lean.mshrs, 64);
    }

    #[test]
    fn policy_presets() {
        assert_eq!(
            ProtectionPolicy::baseline(),
            ProtectionPolicy {
                protect_l1: false,
                port_stealing: false,
                protect_l2: false
            }
        );
        let set = ProtectionPolicy::figure5_set();
        assert!(set[0].protect_l1 && !set[0].port_stealing);
        assert!(set[1].port_stealing);
        assert!(set[2].protect_l2 && !set[2].protect_l1);
        assert!(set[3].protect_l1 && set[3].protect_l2 && set[3].port_stealing);
    }
}
