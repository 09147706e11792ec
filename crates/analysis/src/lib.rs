//! # analysis — the paper's measurement analyses
//!
//! Pure, deterministic analysis passes over collected address sets and
//! scan results. Each module corresponds to a table or figure of the
//! paper:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`levenshtein`] | distance metric behind Table 3's title grouping |
//! | [`title_cluster`] | HTML title clusters (Tables 3, 6, 8) |
//! | [`ssh_os`] | SSH OS extraction (Tables 3, 9) |
//! | [`outdated`] | Debian-derived patch-level analysis (Figures 2, 5) |
//! | [`access_control`] | MQTT/AMQP access control (Figures 3, 6) |
//! | [`coap_groups`] | CoAP resource grouping (Tables 3, 6) |
//! | [`iid_dist`] | IID structure + AS-type shares (Figure 1) |
//! | [`eui64_vendors`] | EUI-64 vendor ranking + per-server provenance (Table 4, Figure 4) |
//! | [`network_groups`] | per-network/AS/country aggregation (Tables 5, 6) |
//! | [`set_profile`] | one-pass per-dataset group-bys behind Table 1 and Figure 1 |
//! | [`overlap`] | dataset comparison rows (Table 1) |
//! | [`keyreuse`] | secret-reuse analysis (§6) |
//! | [`security`] | combined secure-share (the 43.5 % vs 28.4 % takeaway) |
//! | [`attribution`] | scanner-attribution confusion matrix (§5 extension) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access_control;
pub mod attribution;
pub mod coap_groups;
pub mod eui64_vendors;
pub mod iid_dist;
pub mod keyreuse;
pub mod levenshtein;
pub mod network_groups;
pub mod outdated;
pub mod overlap;
pub mod security;
pub mod set_profile;
pub mod ssh_os;
pub mod title_cluster;
pub mod tls_posture;
