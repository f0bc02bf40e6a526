// Command perfbench is the repository benchmark: one command that drives
// the public voxel.New(...).Run() facade over a named workload, prints
// every end-to-end metric by name with its unit, and fails when any
// correctness check fails. Run it from the repository root:
//
//	bash perfbench/run.sh --workload fig6 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when a
// correctness check fails. BENCHMARK.json at the repository root lists the
// workloads and metrics; expected.json in this directory records the
// default seed, the held-out seed and the per-workload result digests for
// the default seed.
//
// # Workloads
//
// The seed sets voxel.WithSeed and a seed-derived start offset into every
// trace (Trace.Shifted). Each run is a fresh process, so the manifest cache
// is cold when setup_s is measured. Trials fan out over two workers.
//
//   - fig6: {BBB/Verizon, ToS/T-Mobile} × buffers {1, 7} × {BOLA/Q, BETA,
//     VOXEL}, 25-segment clips, 2 trials per cell, clean path. Single-session
//     bulk transfer: QUIC* packetising and receiving, httpsim body copies
//     and ABR* decisions do almost all the work; reliable and unreliable
//     use of one transport run side by side. Impairment, obs, invariant
//     and sweep code never runs.
//   - swarm64: 64 VOXEL sessions of BBB sharing one Verizon bottleneck with
//     the default queue, 12-segment clips, 4 trials. Per-session setup
//     (server.New → EncodeMPD), abandonment polling, the kernel, the
//     drop-tail queue and the cc loss reaction dominate; body work per
//     session is small. Four trials spread over the trace make a run less
//     sensitive to the seed's offset than one long trial.
//   - chaos: ToS over T-Mobile with the bursty impairment profile, buffer 2,
//     BOLA/Q and VOXEL with 12 trials each. Telemetry, invariants and a
//     never-tripping event watchdog are armed; the run checkpoints through
//     WithCheckpoint into a fresh directory and exports the telemetry as
//     JSONL and CSV. Only here do the impairment chain, loss recovery
//     (retransmission for BOLA/Q, loss reports plus selective WriteAt for
//     VOXEL), QoE loss scoring, obs recording, the sliced watchdog loop and
//     checkpoint writes run.
//
// # End-to-end metrics (--trace 0)
//
// The run repeats passes over the whole workload until --seconds have
// passed. Each pass is a fresh process of this program: it builds the
// manifests cold, forces a GC, runs every cell through the facade, checks
// that checkpointed cells resume, and reports. Each metric is the median
// over the passes: wall_s, cpu_s (user+sys from getrusage), alloc_mb and
// allocs_m (heap bytes and objects from runtime/metrics) over the trial
// phase, and peak_rss_mb (the pass process's maxrss). setup_s is the median
// of cold manifest builds: several in the run's own process (the first
// through exp.ManifestFor, the rest through the same uncached build, which
// must produce the same manifest) and one per pass. trial_ok_ratio is the
// share of attempted trials that did not fail; a failed-trial count of 0
// cannot serve as a metric that must never be 0.
//
// # Per-layer metrics (--trace 1)
//
// The traced run works only from outside the program. It mirrors the trial
// pipeline through each layer's public functions, records a span around
// every call into a layer, and wraps the three interfaces the program calls
// back through: abr.Algorithm, cc.Controller (through
// quic.Config.Controller) and netem.Impairment (through Link.Impair). Counts
// come from public getters. Its trial results must equal, bit for bit,
// those of the facade run it is paired with. It runs trials on one worker
// so that per-phase allocation deltas belong to one trial, and it profiles
// the CPU while it runs. Spans are kept in memory and written to
// .bench_build/spans/<workload>-<seed>.jsonl at the end.
//
// Layer → metrics → the end-to-end metric each should move, and where:
//
//	prep/video   prep.manifest_build_s                       setup_s, all workloads
//	exp          exp.trial_ms_p50 (exp.trials samples),      wall_s; world setup on swarm64,
//	             exp.world_setup_ms, exp.fold_ms             fold on chaos
//	sim          sim.events, sim.run_s, sim.ns_per_event     wall_s on swarm64 (fig6 smaller)
//	server/dash  server.new_ms, server.new_alloc_mb          wall_s, peak_rss_mb on swarm64; ~0 on fig6
//	quic         quic.newpair_ms, quic.packets_sent,         wall_s/cpu_s/alloc_mb on fig6;
//	             quic.packets_lost, quic.pto, quic.wire_bytes, loss counters on chaos
//	             quic.retx_bytes, quic.unrel_lost_bytes,
//	             quic.selective_retx_bytes, quic.useful_ratio
//	netem        netem.down.{sent,queue_drops,impaired_drops, queue metrics → wall_s on swarm64;
//	             max_queue,queue_delay_ms_mean,busy_frac},    impair metrics → chaos only
//	             netem.up.{sent,impaired_drops},
//	             netem.impair_calls, netem.impair_ms
//	cc           cc.calls, cc.ms, cc.loss_events             wall_s on swarm64
//	abr          abr.decide_calls, abr.decide_ms,            wall_s on fig6 (decisions) and
//	             abr.abandon_calls, abr.abandon_ms           swarm64 (abandon polls)
//	player       player.new_ms, player.bytes_received,       wall_s on chaos (recovery),
//	             player.bytes_wasted, player.useful_ratio,   fig6 (bytes)
//	             player.lost_in_transit, player.recovered_bytes,
//	             player.failed_requests, player.stall_virtual_s
//	obs          obs.timeline_events, obs.timeline_dropped,  wall_s/alloc_mb on chaos only
//	             obs.export_ms, obs.export_bytes
//	sweep        sweep.checkpoint_bytes,                     wall_s on chaos only
//	             sweep.checkpoint_write_ms, sweep.checkpoint_load_ms
//	host runtime alloc.{setup,run,fold}_mb,                  alloc_mb/cpu_s, all workloads
//	             allocs.{setup,run,fold}_m, gc.cycles, gc.cpu_s
//	CPU profile  cpu.{sim,netem,quic,cc,httpsim,server,dash,  attributes cpu_s for in-loop layers
//	             player,abr,qoe,obs,invariant,runtime,other}  without a public seam
//	tracing      trace.overhead, trace.spans                 (the traced run's own cost)
//
// The cpu.* shares bucket the profile's flat samples by the package of the
// innermost function, charging standard-library helpers (math, fmt,
// encoding/xml, time, ...) to the nearest caller in this repository or the
// runtime; the benchmark's own probes land in other. trace.overhead is the traced wall time over the
// paired untraced facade run's, minus one, both on one worker.
//
// # Compare mode
//
//	bash perfbench/run.sh --compare runs/parent runs/change
//
// reads <dir>/<workload>/<run>.json (the last line of each is one run's
// result; runs of the same name pair up) and prints, per workload and
// end-to-end metric, each side's median and quartiles, the share of pairs
// the change won, and a verdict: improved, within bound, unresolved or
// worse. Bounds come from BENCHMARK.json.
package main
