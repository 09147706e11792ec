//! The benchmark's metric names and units — one list, used for the
//! printed result and the trace file. `BENCHMARK.json` carries the same
//! names with their directions and bounds; `selfcheck.sh` fails when a
//! run prints a set of names other than the file's.

use std::collections::BTreeMap;

/// Measured per-layer values by metric name: `(value, unit)`.
pub type Metrics = BTreeMap<String, (f64, String)>;

/// `(name, unit)` of the metrics a user of the system sees. The same
/// five on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_bytes", "B"),
];

/// The 19 experiment modules, in `render_all` order.
pub const RENDER_MODULES: [&str; 19] = [
    "table1",
    "fig1",
    "table2",
    "table3",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "actors",
    "keyreuse",
    "security",
    "table5",
    "table6",
    "fig4",
    "table7",
    "table8",
    "table9",
    "takeaways",
    "metrics",
];

/// `(name, unit)` of every per-layer metric except the 19
/// `core.render.<module>_s`, which [`per_layer`] appends. Spans are
/// host seconds, `*_ns` are probes, the rest are counts or ratios.
const LAYERS: [(&str, &str); 88] = [
    // netsim
    ("netsim.world_generate_s", "s"),
    ("netsim.meta_ns", "ns"),
    ("netsim.respond_ns", "ns"),
    ("netsim.exchange_ideal_ns", "ns"),
    ("netsim.exchange_faulty_ns", "ns"),
    ("netsim.procgen_meta_ns", "ns"),
    ("netsim.device_hit_ns", "ns"),
    ("netsim.device_miss_ns", "ns"),
    ("netsim.transport_exchanges", "count"),
    ("netsim.transport_lost", "count"),
    ("netsim.transport_truncated", "count"),
    // wire
    ("wire.ntp_emit_ns", "ns"),
    ("wire.ntp_parse_ns", "ns"),
    ("wire.ssh_parse_ns", "ns"),
    ("wire.tls_parse_ns", "ns"),
    ("wire.http_parse_ns", "ns"),
    ("wire.mqtt_parse_ns", "ns"),
    ("wire.coap_parse_ns", "ns"),
    ("wire.amqp_parse_ns", "ns"),
    // ntppool
    ("ntppool.collect_s", "s"),
    ("ntppool.select_ns", "ns"),
    ("ntppool.poll_once_ns", "ns"),
    ("ntppool.polls", "count"),
    ("ntppool.responses", "count"),
    ("ntppool.distinct_addresses", "count"),
    ("ntppool.kod", "count"),
    ("ntppool.lost", "count"),
    // store
    ("store.archive_insert_ns", "ns"),
    ("store.archive_contains_hit_ns", "ns"),
    ("store.archive_contains_miss_ns", "ns"),
    ("store.archive_segments", "count"),
    ("store.bloom_prune_ratio", "ratio"),
    ("store.bytes_per_addr", "B"),
    ("store.archive_heap_bytes", "B"),
    ("store.compact_build_ns", "ns"),
    ("store.overlap_ns", "ns"),
    ("store.union_ns", "ns"),
    ("store.segment_freeze_s", "s"),
    ("store.segment_open_s", "s"),
    // scanner
    ("scanner.scan_target_ns", "ns"),
    ("scanner.scan_target_faulty_ns", "ns"),
    ("scanner.batch_scan_s", "s"),
    ("scanner.targets", "count"),
    ("scanner.attempts", "count"),
    ("scanner.attempts_per_target", "ratio"),
    // hitlist, telescope, actors, v6addr, telemetry
    ("hitlist.build_s", "s"),
    ("hitlist.addresses", "count"),
    ("telescope.sweep_s", "s"),
    ("telescope.captures", "count"),
    ("telescope.attributed", "count"),
    ("actors.eco_probes", "count"),
    ("actors.attribution_accuracy", "ratio"),
    ("v6addr.classify_iid_ns", "ns"),
    ("telemetry.registry_add_ns", "ns"),
    ("telemetry.report_json_roundtrip_ns", "ns"),
    // core
    ("core.session_open_s", "s"),
    ("core.finish_s", "s"),
    ("core.render_all_s", "s"),
    ("core.run_report_s", "s"),
    ("core.derived_set_build_s", "s"),
    ("core.derived_memo_misses", "count"),
    ("core.feed_observations", "count"),
    ("core.checkpoint_write_s", "s"),
    ("core.checkpoint_read_s", "s"),
    ("core.checkpoint_bytes", "B"),
    // service
    ("service.tick_p50_s", "s"),
    ("service.tick_max_s", "s"),
    ("service.ticks", "count"),
    ("service.query_cold_s", "s"),
    ("service.query_hot_ns", "ns"),
    ("service.admissions", "count"),
    ("service.evictions", "count"),
    ("service.resumes", "count"),
    ("service.evicted_bytes", "B"),
    ("service.slices", "count"),
    ("service.compactions", "count"),
    ("service.world_builds", "count"),
    ("service.world_shares", "count"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.set_rebuilds", "count"),
    ("service.segment_mapped_bytes", "B"),
    // harness
    ("host.calib_s", "s"),
    ("host.calib_drift", "ratio"),
    ("alloc.count", "count"),
    ("alloc.bytes", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Every per-layer metric as `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<_> = LAYERS.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    all.extend(
        RENDER_MODULES
            .iter()
            .map(|m| (format!("core.render.{m}_s"), "s")),
    );
    all
}

/// A map holding every per-layer metric at zero: a layer a workload
/// never calls reports the zero it measured.
pub fn zeroed() -> Metrics {
    per_layer()
        .into_iter()
        .map(|(name, unit)| (name, (0.0, unit.to_owned())))
        .collect()
}

/// Records a measured value under a name [`per_layer`] lists.
pub fn put(m: &mut Metrics, name: &str, value: f64) {
    let slot = m
        .get_mut(name)
        .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
    slot.0 = value;
}
