//! Helpers shared by the list battery (`list_conformance.rs`) and the
//! dictionary suite (`conformance.rs`).

use valois::ArenaConfig;

/// Worker threads for the concurrent bodies: the machine's parallelism,
/// clamped to 4..=8 so small machines still interleave.
pub fn threads() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get().clamp(4, 8) as u64)
        .unwrap_or(4)
}

/// An arena of exactly `nodes` nodes that never grows.
pub fn capped_config(nodes: usize) -> ArenaConfig {
    ArenaConfig::new().initial_capacity(nodes).max_nodes(nodes)
}
