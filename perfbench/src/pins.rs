//! Pinned FNV-1a digests of each workload's deterministic output, per
//! scale. A run whose output digest differs fails its correctness
//! check; the run prints the observed digest as `exact.digest`, so a
//! deliberate behaviour change re-pins by copying that value here.

/// Canonical campaign report JSON (timing excluded).
pub const CAMPAIGN_FULL: u64 = 0x612d_f799_bedf_fcfe;
pub const CAMPAIGN_SMOKE: u64 = 0x3219_a506_3062_a3dd;
/// Per-instance status, tests, candidates and solution lists.
pub const ENGINE_FULL: u64 = 0xe973_42aa_23d9_ea2a;
pub const ENGINE_SMOKE: u64 = 0x11e9_1802_e7dc_a258;
/// Distinct daemon responses in pool order.
pub const SERVE_FULL: u64 = 0x33e6_667d_8456_ce60;
pub const SERVE_SMOKE: u64 = 0xea42_7132_98b1_d2a2;
