//! Deterministic interleaving explorer for the engine's concurrent hot
//! paths.
//!
//! This crate only does real work in a **model build** — compiled with
//! `RUSTFLAGS="--cfg obr_model"` — where every `obr-sync` facade
//! primitive routes through the controllable scheduler in
//! `obr_sync::model`. It then replays seeded random interleavings and
//! bounded exhaustive permutations (with DPOR-lite pruning) over seven
//! scripted scenarios covering the engine's concurrent hot paths, checks
//! scenario assertions under every schedule, and accumulates the
//! observed lock-acquisition-order graph for comparison against
//! `check/lockorder.toml`.
//!
//! In a normal build the scheduler does not exist; the `obr-race` binary
//! still compiles but exits with an explanatory error. This keeps the
//! model machinery one `cfg` away from production code at all times.
//!
//! Entry points (plain code spans, not links: the modules only exist
//! under the model cfg and would break `cargo doc` otherwise):
//! - `scenarios::all` — the eight scripted scenarios (model builds).
//! - `explore::run_random` / `explore::run_exhaustive` — the two
//!   explorers (model builds).
//! - `obr-race` binary — CLI over both, plus the lock-order diff.

#[cfg(obr_model)]
pub mod explore;
#[cfg(obr_model)]
pub mod scenarios;

/// True when this build carries the model scheduler (`--cfg obr_model`).
pub const fn model_enabled() -> bool {
    obr_sync::is_model_build()
}
