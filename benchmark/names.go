package main

// The metric names of BENCHMARK.json, as the program knows them. The smoke
// test holds the two lists equal.

// e2eNames are the end-to-end metrics: every workload measures every one,
// on the untraced run. Each slot is a ratio to the workload's in-run
// reference, so it travels between machines; README.md says which op fills
// which slot in which workload.
var e2eNames = []string{"setup_s", "rtt_x_raw", "burst_x_raw", "churn_x_raw"}

// e2eUnit is the metric's unit, "" for a name that is not end-to-end.
func e2eUnit(name string) string {
	for _, n := range e2eNames {
		if n == name {
			if n == "setup_s" {
				return "s"
			}
			return "x"
		}
	}
	return ""
}

func isE2E(name string) bool { return e2eUnit(name) != "" }

// layerUnits are the per-layer metrics and their units. A traced run
// reports all of them, 0 for a layer the workload does not exercise.
var layerUnits = map[string]string{
	// The issue's end-to-end figures that no slot gates, under the issue's
	// names. The others are the slots themselves on their workload, or the
	// driver.<op>_p50_us of their op: one name per figure (README.md has the
	// table).
	"resolve_x_raw": "x", "soap_echo_x_raw": "x",
	"publish_per_s": "1/s", "bulk_load_per_s": "1/s",
	"sim_pass_s":         "s",
	"trace_overhead_pct": "%",

	// The in-run machine score, stored with every run.
	"calib.echo_us": "us", "calib.memcpy_gb_s": "GB/s", "calib.tcp_bw_mb_s": "MB/s",

	"pool.getput_ns": "ns", "pool.getput_allocs": "count",

	"gatekeeper.codec.ping_ns": "ns", "gatekeeper.codec.lookup_ns": "ns", "gatekeeper.codec.batch16_ns": "ns",
	"gatekeeper.codec.allocs_op": "count", "gatekeeper.codec.bytes_ping": "B",
	"gatekeeper.codec.rtt_share_us": "us",

	"gatekeeper.control.rtt_share_us": "us", "gatekeeper.handle_p50_us": "us",
	"gatekeeper.bytes_in_per_req": "B", "gatekeeper.bytes_out_per_req": "B",

	"gatekeeper.registry.lookup_inproc_us": "us", "gatekeeper.registry.lookup_inproc_us_10k": "us",
	"gatekeeper.registry.lookup_scale_x": "x", "gatekeeper.registry.digest_round_p50_us": "us",
	"gatekeeper.registry.records_sent": "count", "gatekeeper.registry.crash_recovery_ms": "ms",

	"gatekeeper.regclient.resolve_cached_ns": "ns", "gatekeeper.regclient.lookupbatch16_us": "us",
	"gatekeeper.regclient.cache_hit_ratio": "ratio", "gatekeeper.regclient.failovers": "count",

	"sockets.mux.rtt_x_raw.64": "x", "sockets.mux.rtt_x_raw.4k": "x",
	"sockets.mux.rtt_x_raw.64k": "x", "sockets.mux.rtt_x_raw.1m": "x",
	"sockets.mux.rtt_share_us": "us", "sockets.mux.frames_per_msg": "count",
	"sockets.mux.wire_overhead_pct": "%", "sockets.mux.allocs_per_msg": "count",
	"sockets.wall.dials": "count", "sockets.wall.sessions": "count", "sockets.wall.streams": "count",

	"telemetry.rtt_share_us": "us", "telemetry.span_ns": "ns", "telemetry.counter_ns": "ns",
	"telemetry.trace_on_x": "x",

	"vlink.dial_share_ms": "ms", "soap.call_share_us": "us",
	"deploy.attach_ms": "ms", "deploy.start_daemon_ms": "ms",

	"madeleine.pack_ns": "ns", "madeleine.pack_allocs": "count", "vtime.event_ns": "ns",
	"gridccm.fig8_s": "s", "gridccm.eth_s": "s", "orb.fig7_s": "s", "orb.latency_s": "s",
	"arbitration.concurrent_s": "s", "circuit.cross_s": "s", "vlink.security_s": "s",
	"madeleine.overhead_s": "s",

	// The ladders: rungs, and how far the codec rung sits from the in-memory
	// codec measurement. Shares live under their layer's name above.
	"ladder.raw_us": "us", "ladder.mux_us": "us", "ladder.codec_us": "us",
	"ladder.bare_us": "us", "ladder.ping_us": "us", "ladder.codec_agree_pct": "%",
	"ladder.lookup_us": "us", "ladder.lookup_residual_us": "us",
}

// driverOps are the ops whose absolute figures and tails the traced run
// reports as driver.<op>_p50_us, _p99_us and _n. The contract caps the
// per-layer table at 128 entries; an op not listed here still prints its
// figures in the run's comment lines.
var driverOps = []string{
	"raw_echo", "raw_pipe16", "ping", "resolve", "pipe16", "soap_echo", "dial_service",
	"raw_rtt", "stream_rtt", "stream_bulk", "stream_open",
	"raw_scan", "lookup", "lookup_batch", "lookup_rw", "publish", "attach",
}

func init() {
	for _, o := range driverOps {
		layerUnits["driver."+o+"_p50_us"] = "us"
		layerUnits["driver."+o+"_p99_us"] = "us"
		layerUnits["driver."+o+"_n"] = "count"
	}
}
