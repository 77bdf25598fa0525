//! QoS threshold.
//!
//! The sensitive application's QoS is its delivered service fraction: for
//! VLC streaming this is the achieved transcoding rate relative to the rate
//! required for uninterrupted delivery; for the webservice it is the
//! completed-transactions rate relative to demand. A tick is a *violation*
//! when the value falls below [`QOS_THRESHOLD`] — the paper's "QoS
//! threshold" line in Figures 8, 9 and 14–16.

/// The violation threshold (0.95): the paper's "minimum transcoding rate
/// required to provide real time viewing without any loss of frames".
pub const QOS_THRESHOLD: f64 = 0.95;
