//! The kernel-backend name. It stays only because the benchmark's host
//! facts record `active_level().name()`; every kernel in the workspace
//! is a plain scalar loop (DESIGN.md §13).

/// The kernel backend that runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops, the only backend.
    Scalar,
}

impl SimdLevel {
    /// Backend name as the host facts print it.
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// The backend in use: always [`SimdLevel::Scalar`].
pub fn active_level() -> SimdLevel {
    SimdLevel::Scalar
}
