//! Synthetic models of the paper's applications.
//!
//! Each function builds a [`PhasedApp`](crate::app::PhasedApp) whose
//! resource signature follows what the paper reports (§7.1 and the Figure 5
//! discussion):
//!
//! | Paper application | Model | Signature |
//! |---|---|---|
//! | VLC 2.0.5 streaming server | `vlc_streaming` | workload-driven CPU + network, moderate cache |
//! | VLC transcoding | `vlc_transcode` | steady heavy CPU + disk, finite |
//! | Memcached webservice | `webservice` | CPU / memory / mixed workloads |
//! | SPEC CPU 2006 soplex | `soplex` | steady CPU, slowly growing memory, linear trajectory |
//! | CloudSuite Twitter influence ranking | `twitter_analysis` | alternating CPU-heavy and memory-heavy phases |
//! | Isolation-benchmark CPUBomb | `cpu_bomb` | saturates all cores, no phase changes |
//! | Custom MemoryBomb | `memory_bomb` | allocates large chunks, occasionally scans them |

mod bombs;
pub mod soplex;
mod twitter;
pub mod vlc;
pub mod webservice;

pub(crate) use bombs::{cpu_bomb, memory_bomb};
pub(crate) use soplex::soplex;
pub(crate) use twitter::twitter_analysis;
pub(crate) use vlc::{vlc_streaming, vlc_transcode};
pub(crate) use webservice::webservice;
pub use webservice::WebWorkload;
