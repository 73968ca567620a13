//! JSON renderings of the simulator's configuration types and cycle report, used by the
//! experiment artefacts (`SweepReport` and the figure binaries' `--json` outputs).

use crate::config::{CacheConfig, LatencyConfig};
use crate::mask::ColumnMask;
use crate::replacement::ReplacementPolicy;
use crate::stats::CycleReport;
use crate::system::SystemConfig;
use crate::tint::Tint;
use ccache_json::{Json, ToJson};

impl ToJson for ReplacementPolicy {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for Tint {
    fn to_json(&self) -> Json {
        Json::UInt(self.0 as u64)
    }
}

impl ToJson for ColumnMask {
    fn to_json(&self) -> Json {
        Json::arr(self.iter().map(|c| Json::UInt(c as u64)))
    }
}

impl ToJson for CacheConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("capacity_bytes", self.capacity_bytes().to_json()),
            ("columns", self.columns().to_json()),
            ("line_size", self.line_size().to_json()),
            ("replacement", self.replacement().to_json()),
        ])
    }
}

impl ToJson for LatencyConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hit_latency", self.hit_latency.to_json()),
            ("miss_penalty", self.miss_penalty.to_json()),
            ("writeback_penalty", self.writeback_penalty.to_json()),
            ("scratchpad_latency", self.scratchpad_latency.to_json()),
            ("uncached_latency", self.uncached_latency.to_json()),
            ("tlb_miss_penalty", self.tlb_miss_penalty.to_json()),
            (
                "compute_cycles_per_instruction",
                self.compute_cycles_per_instruction.to_json(),
            ),
            (
                "instructions_per_reference",
                self.instructions_per_reference.to_json(),
            ),
        ])
    }
}

impl ToJson for SystemConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cache", self.cache.to_json()),
            ("latency", self.latency.to_json()),
            ("page_size", self.page_size.to_json()),
            ("tlb_entries", self.tlb_entries.to_json()),
        ])
    }
}

impl ToJson for CycleReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("instructions", self.instructions.to_json()),
            ("compute_cycles", self.compute_cycles.to_json()),
            ("memory_cycles", self.memory_cycles.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_render_their_fields() {
        let s = SystemConfig::default().to_json().pretty();
        assert!(s.contains("\"capacity_bytes\": 2048"));
        assert!(s.contains("\"replacement\": \"lru\"") || s.contains("\"replacement\": \"Lru\""));
        assert!(s.contains("\"page_size\": 1024"));
    }

    #[test]
    fn masks_render_as_column_lists() {
        assert_eq!(
            ColumnMask::from_columns([0, 2]).to_json().compact(),
            "[0,2]"
        );
    }
}
