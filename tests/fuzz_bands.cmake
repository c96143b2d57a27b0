# The conformance_fuzz bands, one row each, with the summary line each
# prints pinned. CMakeLists.txt includes this file after defining
# fuzz_band(<name> <tier1|sanitized|release> "<flags>" "<pinned line>"),
# which registers the row as ctest entry fuzz_<build>_<name>; that entry
# runs `conformance_fuzz <flags>` and fails unless it exits 0 and prints
# exactly the pinned CONFORMANT: line (tests/fuzz_band_check.cmake).
#
#   tier1      runs with every plain `ctest`, so also in CI's sanitized
#              full-suite step. Keep these rows around half a second in
#              Release.
#   sanitized  CI's ASan+UBSan Debug job:  ctest -C fuzz -L fuzz_sanitized -j
#   release    CI's Release job:           ctest -C fuzz -L fuzz_release -j
#
# Counts are deterministic (checked / incomplete / cross-generation
# restarts), so a moved pin is a behaviour change: fix the regression, or
# edit the row in the same commit and list it old -> new in CHANGES.md.
# Every sweep must still exit 0 (no divergence, no abort at theta <= 0.7).

# --- tier1 ------------------------------------------------------------------

# DSI only, under per-bucket loss: the Debug client recomputes its pending
# targets and kNN radius from scratch on every hop and asserts the kept
# state matches, on both kNN strategies and warm tours, with frames that
# complete only after lost retries.
fuzz_band(dsi_lossy_13000 tier1
  "--families=dsi --seeds=200 --start=13000 --theta=0.3 --error-mode=bucket"
  "CONFORMANT: 200 seeds, 7862 queries checked against the oracle, 0 incomplete (watchdog) skipped, 818 cross-generation restarts")

# kNN only, at theta=0.5 per-bucket loss, over the families whose searches
# keep flat containers: the DSI radius bounds and retrieved bitmap, the
# R-tree's flat node store and replica lists, and the exponential index's
# rank-vector candidates.
fuzz_band(knn_flat_30000 tier1
  "--families=dsi,rtree,expindex --windows=0 --seeds=64 --start=30000 --theta=0.5 --error-mode=bucket"
  "CONFORMANT: 64 seeds, 6444 queries checked against the oracle, 0 incomplete (watchdog) skipped, 635 cross-generation restarts")

# R-tree, HCI and the exponential index over 2-disk skewed cycles at
# theta=0.5 per-bucket loss: replicated node airings on the R-tree
# frontier, hot data repetitions in the pending sets and the exponential
# index's lost-item sweeps drive the bitmap pending set (AiringSet) and the
# retrieved sets.
fuzz_band(tree_disks_22000 tier1
  "--families=rtree,hci,expindex --seeds=64 --start=22000 --theta=0.5 --error-mode=bucket --num-disks=2 --disk-skew=1.2"
  "CONFORMANT: 64 seeds, 7176 queries checked against the oracle, 0 incomplete (watchdog) skipped, 660 cross-generation restarts")

# DSI and the exponential index over 3-disk skewed cycles, republished 3+
# times, at theta=0.3 per-bucket loss: multi-cycle dozes and re-syncs run
# the session's kept cycle-position assert, and the DSI hop runs the
# galloping-vs-linear assert, beside the exponential index's runner-up
# pick. theta is pinned: seed-drawn theta leaves queries incomplete on this
# band.
fuzz_band(dsi_exp_disks_26000 tier1
  "--families=dsi,expindex --seeds=64 --start=26000 --num-disks=3 --disk-skew=1.4 --min-generations=3 --min-updates=2 --theta=0.3 --error-mode=bucket"
  "CONFORMANT: 64 seeds, 4828 queries checked against the oracle, 0 incomplete (watchdog) skipped, 1800 cross-generation restarts")

# --- sanitized --------------------------------------------------------------
# Memory errors and UB in recovery paths only reproduce under loss, so these
# bands run under ASan+UBSan with assertions live.

# Seed-drawn cases over all four families.
fuzz_band(mixed_2000 sanitized
  "--seeds=100 --start=2000"
  "CONFORMANT: 100 seeds, 15971 queries checked against the oracle, 199 incomplete (watchdog) skipped, 1398 cross-generation restarts")

# Every case lifted onto the dynamic-broadcast axis: >=3 generations with a
# non-trivial update stream between them; generation-aware oracles and
# stale-knowledge invalidation.
fuzz_band(generations_4000 sanitized
  "--seeds=100 --start=4000 --min-generations=3 --min-updates=2"
  "CONFORMANT: 100 seeds, 15799 queries checked against the oracle, 131 incomplete (watchdog) skipped, 4669 cross-generation restarts")

# Erasure repair's decode/repark paths only execute under loss; correlated
# bursts are their adversarial input. Pin a real code and the burst channel
# so every seed exercises them.
fuzz_band(coded_burst_6000 sanitized
  "--seeds=100 --start=6000 --code-group=2 --code-parity=2 --error-mode=burst"
  "CONFORMANT: 100 seeds, 15185 queries checked against the oracle, 221 incomplete (watchdog) skipped, 1426 cross-generation restarts")

# Every seed diffs each moving client's steps in the population run against
# its alone run bit-exactly; pinning total churn makes arrivals/departures
# and slot recycling run on every case.
fuzz_band(churn_9000 sanitized
  "--seeds=100 --start=9000 --clients=4 --churn-rate=1.0"
  "CONFORMANT: 100 seeds, 16584 queries checked against the oracle, 404 incomplete (watchdog) skipped, 1396 cross-generation restarts")

# Pin a 3-disk skewed layout so every seed exercises the chunked cycle,
# repetition-aware reads and the skew-matched query streams; the
# brute-force oracle is layout-independent.
fuzz_band(disks_11000 sanitized
  "--seeds=64 --start=11000 --num-disks=3 --disk-skew=1.2"
  "CONFORMANT: 64 seeds, 9450 queries checked against the oracle, 118 incomplete (watchdog) skipped, 821 cross-generation restarts")

# The path the city-dyn benchmark times: churned moving clients on a
# republished 2-disk skewed broadcast, so the multi-disk DSI hop walk and
# warm-client re-sync run.
fuzz_band(churn_disks_9000 sanitized
  "--seeds=32 --start=9000 --clients=4 --churn-rate=1.0 --num-disks=2 --disk-skew=1.2 --min-generations=3 --min-updates=2"
  "CONFORMANT: 32 seeds, 5816 queries checked against the oracle, 344 incomplete (watchdog) skipped, 1906 cross-generation restarts")

# DSI with no random windows, at theta=0.7 per-bucket loss: lost objects
# let the kNN radius grow past bounds parked outside its sorted live
# vector, so the Debug full-scan radius check runs where parked bounds get
# promoted (seed 20072). The (4,1) code is pinned because uncoded
# multi-disk cycles still leave queries incomplete at this theta
# (ROADMAP 2h / 6b).
fuzz_band(dsi_knn_20000 sanitized
  "--families=dsi --windows=0 --code-group=4 --code-parity=1 --seeds=100 --start=20000 --theta=0.7 --error-mode=bucket"
  "CONFORMANT: 100 seeds, 3516 queries checked against the oracle, 0 incomplete (watchdog) skipped, 346 cross-generation restarts")

# Coding composed over a 2-disk skewed cycle: parity groups run over the
# physical airings, hot repetitions included, so in-group repair and
# nearest-airing reads share one slot map.
fuzz_band(coded_disks_15000 sanitized
  "--seeds=64 --start=15000 --code-group=2 --code-parity=1 --num-disks=2 --disk-skew=1.2 --theta=0.5 --error-mode=burst"
  "CONFORMANT: 64 seeds, 9720 queries checked against the oracle, 0 incomplete (watchdog) skipped, 972 cross-generation restarts")

# --- release ----------------------------------------------------------------
# Fresh seeds at Release codegen, more of them than the sanitized job
# affords.

# Two disjoint 128-seed bands (the 40-seed ctest sweep uses 0..39): >=200
# fresh seeds per CI run.
fuzz_band(mixed_100 release
  "--seeds=128 --start=100"
  "CONFORMANT: 128 seeds, 20337 queries checked against the oracle, 255 incomplete (watchdog) skipped, 1807 cross-generation restarts")
fuzz_band(mixed_1000 release
  "--seeds=128 --start=1000"
  "CONFORMANT: 128 seeds, 20124 queries checked against the oracle, 286 incomplete (watchdog) skipped, 1555 cross-generation restarts")

# Update-stream sweep: 3+ generations per case.
fuzz_band(generations_4000 release
  "--seeds=128 --start=4000 --min-generations=3 --min-updates=2"
  "CONFORMANT: 128 seeds, 20529 queries checked against the oracle, 131 incomplete (watchdog) skipped, 6098 cross-generation restarts")

# The coding layer's acceptance bar: with a (2,2) code at theta=0.5, every
# family completes every query (0 divergences, 0 watchdog aborts) under
# per-bucket loss AND under correlated bursts; and coded cases survive the
# dynamic-generation axis (parity rebuilt per generation, stale-knowledge
# invalidation intact).
fuzz_band(coded_bucket_6000 release
  "--seeds=128 --start=6000 --code-group=2 --code-parity=2 --theta=0.5 --error-mode=bucket"
  "CONFORMANT: 128 seeds, 19074 queries checked against the oracle, 0 incomplete (watchdog) skipped, 2193 cross-generation restarts")
fuzz_band(coded_burst_7000 release
  "--seeds=128 --start=7000 --code-group=2 --code-parity=2 --theta=0.5 --error-mode=burst"
  "CONFORMANT: 128 seeds, 20756 queries checked against the oracle, 0 incomplete (watchdog) skipped, 1980 cross-generation restarts")
fuzz_band(coded_generations_8000 release
  "--seeds=64 --start=8000 --min-generations=3 --min-updates=2 --code-group=3 --code-parity=1"
  "CONFORMANT: 64 seeds, 10166 queries checked against the oracle, 0 incomplete (watchdog) skipped, 3131 cross-generation restarts")

# Fresh band (11000) disjoint from every other sweep: 3-disk skewed cycles
# with popularity-matched query streams.
fuzz_band(disks_11000 release
  "--seeds=128 --start=11000 --num-disks=3 --disk-skew=1.2"
  "CONFORMANT: 128 seeds, 19293 queries checked against the oracle, 135 incomplete (watchdog) skipped, 1796 cross-generation restarts")

# Fresh band (15000): a (2,1) code over 2-disk skewed cycles at theta=0.5
# under correlated bursts must complete every query.
fuzz_band(coded_disks_15000 release
  "--seeds=128 --start=15000 --code-group=2 --code-parity=1 --num-disks=2 --disk-skew=1.2 --theta=0.5 --error-mode=burst"
  "CONFORMANT: 128 seeds, 19230 queries checked against the oracle, 0 incomplete (watchdog) skipped, 2197 cross-generation restarts")
