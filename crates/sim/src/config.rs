//! System configurations (Table 1 of the paper).

use rebudget_cache::CacheConfig;
use rebudget_power::{DvfsRange, PowerBudget};

use crate::dram::DramConfig;

/// Bytes in one *cache region* — the market's cache allocation granularity
/// (§4.1.1: "we empirically set the allocation granularity to 128 kB").
pub const CACHE_REGION_BYTES: f64 = 128.0 * 1024.0;

/// The allocation quantum: the budget re-assignment algorithm re-runs
/// every 1 ms (§4.3).
pub const QUANTUM_SECONDS: f64 = 1e-3;

/// A chip-multiprocessor configuration from Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (8 or 64 in the paper).
    pub cores: usize,
    /// Chip power budget (10 W per core).
    pub power: PowerBudget,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// Memory controller channels (2 / 16).
    pub memory_channels: usize,
    /// Per-core DVFS range.
    pub dvfs: DvfsRange,
    /// Cache regions guaranteed free to every core (1 region, §4.1).
    pub free_regions_per_core: usize,
    /// Maximum cache regions any one core can use (UMON stack-distance
    /// limit: 16 regions = 2 MB, §5).
    pub max_regions_per_core: usize,
}

impl SystemConfig {
    /// The paper's 8-core configuration: 80 W, 4 MB 16-way L2, 2 channels.
    pub fn paper_8core() -> Self {
        Self {
            cores: 8,
            power: PowerBudget::paper(8),
            l2: CacheConfig::l2_8core(),
            memory_channels: 2,
            dvfs: DvfsRange::paper(),
            free_regions_per_core: 1,
            max_regions_per_core: 16,
        }
    }

    /// The paper's 64-core configuration: 640 W, 32 MB 32-way L2,
    /// 16 channels.
    pub fn paper_64core() -> Self {
        Self {
            cores: 64,
            power: PowerBudget::paper(64),
            l2: CacheConfig::l2_64core(),
            memory_channels: 16,
            dvfs: DvfsRange::paper(),
            free_regions_per_core: 1,
            max_regions_per_core: 16,
        }
    }

    /// A scaled-down configuration for fast tests: `cores` cores with
    /// 512 kB of L2 per core and 10 W per core.
    pub fn scaled(cores: usize) -> Self {
        Self {
            cores,
            power: PowerBudget::paper(cores),
            l2: CacheConfig {
                size_bytes: (cores as u64) * 512 * 1024,
                ways: 16,
                line_bytes: 32,
            },
            memory_channels: (cores / 4).max(1),
            dvfs: DvfsRange::paper(),
            free_regions_per_core: 1,
            max_regions_per_core: 16,
        }
    }

    /// Total cache regions on the chip.
    pub fn total_regions(&self) -> usize {
        (self.l2.size_bytes as f64 / CACHE_REGION_BYTES) as usize
    }

    /// Discretionary cache regions: total minus one free region per core.
    pub fn discretionary_regions(&self) -> usize {
        self.total_regions() - self.cores * self.free_regions_per_core
    }

    /// Cache bytes available to a core holding `discretionary` extra
    /// regions (its free region included), capped at the per-core maximum.
    pub fn core_cache_bytes(&self, discretionary_regions: f64) -> f64 {
        let regions = self.free_regions_per_core as f64 + discretionary_regions.max(0.0);
        (regions * CACHE_REGION_BYTES).min(self.max_regions_per_core as f64 * CACHE_REGION_BYTES)
    }
}

/// The system and DRAM for a core count: the paper's configurations at 8
/// and 64 cores, [`SystemConfig::scaled`] otherwise, always on DDR3-1600.
pub fn system_for(cores: usize) -> (SystemConfig, DramConfig) {
    let sys = match cores {
        8 => SystemConfig::paper_8core(),
        64 => SystemConfig::paper_64core(),
        n => SystemConfig::scaled(n),
    };
    (sys, DramConfig::ddr3_1600())
}

/// One row of Table 1 (name, 8-core value, 64-core value) — everything the
/// paper lists, reproducible by the `table1_config` binary.
pub fn table1_rows() -> Vec<(&'static str, String, String)> {
    let c8 = SystemConfig::paper_8core();
    let c64 = SystemConfig::paper_64core();
    vec![
        ("Number of Cores", "8".into(), "64".into()),
        (
            "Power Budget",
            format!("{} W", c8.power.total_watts),
            format!("{} W", c64.power.total_watts),
        ),
        (
            "Shared L2 Cache Capacity",
            format!("{} MB", c8.l2.size_bytes >> 20),
            format!("{} MB", c64.l2.size_bytes >> 20),
        ),
        (
            "Shared L2 Cache Associativity",
            format!("{} ways", c8.l2.ways),
            format!("{} ways", c64.l2.ways),
        ),
        (
            "Memory Controller",
            format!("{} channels", c8.memory_channels),
            format!("{} channels", c64.memory_channels),
        ),
        (
            "Frequency",
            "0.8 GHz - 4.0 GHz".into(),
            "0.8 GHz - 4.0 GHz".into(),
        ),
        ("Voltage", "0.8 V - 1.2 V".into(), "0.8 V - 1.2 V".into()),
        (
            "Fetch/Issue/Commit Width",
            "4 / 4 / 4".into(),
            "4 / 4 / 4".into(),
        ),
        (
            "Int/FP/Ld/St/Br Units",
            "2 / 2 / 2 / 2 / 2".into(),
            "2 / 2 / 2 / 2 / 2".into(),
        ),
        ("ROB (Reorder Buffer) Entries", "128".into(), "128".into()),
        ("Int/FP Registers", "160 / 160".into(), "160 / 160".into()),
        ("Ld/St Queue Entries", "32 / 32".into(), "32 / 32".into()),
        (
            "Branch Predictor",
            "Alpha 21264 (tournament)".into(),
            "Alpha 21264 (tournament)".into(),
        ),
        (
            "BTB Size",
            "512 entries, direct-mapped".into(),
            "512 entries, direct-mapped".into(),
        ),
        ("iL1/dL1 Size", "32 kB".into(), "32 kB".into()),
        (
            "iL1/dL1 Block Size",
            "32 B / 32 B".into(),
            "32 B / 32 B".into(),
        ),
        (
            "iL1/dL1 Associativity",
            "direct-mapped / 4-way".into(),
            "direct-mapped / 4-way".into(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_table1() {
        let c8 = SystemConfig::paper_8core();
        assert_eq!(c8.cores, 8);
        assert_eq!(c8.power.total_watts, 80.0);
        assert_eq!(c8.l2.size_bytes, 4 << 20);
        assert_eq!(c8.l2.ways, 16);
        assert_eq!(c8.memory_channels, 2);

        let c64 = SystemConfig::paper_64core();
        assert_eq!(c64.power.total_watts, 640.0);
        assert_eq!(c64.l2.size_bytes, 32 << 20);
        assert_eq!(c64.l2.ways, 32);
        assert_eq!(c64.memory_channels, 16);
    }

    #[test]
    fn region_accounting() {
        let c8 = SystemConfig::paper_8core();
        // 4 MB / 128 kB = 32 regions; 8 free → 24 discretionary.
        assert_eq!(c8.total_regions(), 32);
        assert_eq!(c8.discretionary_regions(), 24);
        let c64 = SystemConfig::paper_64core();
        // 32 MB / 128 kB = 256 regions; 64 free → 192 discretionary.
        assert_eq!(c64.total_regions(), 256);
        assert_eq!(c64.discretionary_regions(), 192);
    }

    #[test]
    fn core_cache_bytes_caps_at_2mb() {
        let c = SystemConfig::paper_64core();
        assert_eq!(c.core_cache_bytes(0.0), 128.0 * 1024.0);
        assert_eq!(c.core_cache_bytes(3.0), 4.0 * 128.0 * 1024.0);
        assert_eq!(c.core_cache_bytes(100.0), 16.0 * 128.0 * 1024.0);
    }

    #[test]
    fn table1_covers_key_rows() {
        let rows = table1_rows();
        assert!(rows.len() >= 15);
        assert!(rows.iter().any(|(n, ..)| *n == "Power Budget"));
        assert!(rows.iter().any(|(n, ..)| *n == "Branch Predictor"));
    }

    #[test]
    fn scaled_config_is_consistent() {
        let c = SystemConfig::scaled(4);
        assert_eq!(c.cores, 4);
        assert_eq!(c.total_regions(), 16);
        assert!(c.l2.validate().is_ok());
    }
}
