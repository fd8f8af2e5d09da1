#!/bin/sh
# Run the tier1 workflow's output configs on one source tree.
#
#   .github/scripts/outputs.sh SRC OUT
#
# SRC is a checkout's src/ directory and OUT a new directory, which gets
# every output file the configs write.  Each command runs with SRC first
# on PYTHONPATH; one that fails is listed in OUT/failed.txt and the rest
# still run, so two trees' OUT directories can be diffed whatever either
# does.
set -u
SRC=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2" || exit 1
: > failed.txt

cs() {
    PYTHONPATH="$SRC" python -m coilsense.cli "$@" > /dev/null 2>&1 || echo "coilsense $*" >> failed.txt
}

echo '{"scenarios": [{"kind": "cyclic_estimation"}]}' > cfg.json
cs --config cfg.json --out out simulate
cs --config cfg.json --out out estimate --data out/cyclic_estimation.csv
cs --config cfg.json --out out report
echo '{"scenarios": [{"kind": "cyclic_estimation", "cycle_period_s": 4.0}]}' > cfg4.json
cs --config cfg4.json --out out4 simulate
cs --config cfg4.json --out out4 estimate --data out4/cyclic_estimation.csv
echo '{"plant": {"noise_L": 0.0, "noise_F": 0.0}, "scenarios": [{"kind": "cyclic_estimation"}]}' > clean.json
cs --config clean.json --out clean simulate
cs --config clean.json --out clean estimate --data clean/cyclic_estimation.csv
echo '{"plant": {"noise_L": 0.03}, "scenarios": [{"kind": "cyclic_estimation", "cycle_period_s": 2.0}]}' > wide.json
cs --config wide.json --out wide simulate
cs --config wide.json --out wide estimate --data wide/cyclic_estimation.csv

cat > loops.json <<'EOT'
{"scenarios": [
  {"kind": "force_tracking", "waveform": "sine", "frequency_hz": 0.2},
  {"kind": "displacement_tracking", "waveform": "sine", "frequency_hz": 0.2},
  {"kind": "load_perturbation"}]}
EOT
cs --config loops.json --out loops track
cs --config loops.json --out loops perturb
echo '{"scenarios": [{"kind": "load_perturbation"}]}' > lp.json
cs --config lp.json --out lp simulate
cat > short.json <<'EOT'
{"scenarios": [
  {"kind": "force_tracking", "waveform": "sine", "frequency_hz": 0.2, "duration_s": 20.03},
  {"kind": "displacement_tracking", "waveform": "sine", "frequency_hz": 0.2, "duration_s": 20.03},
  {"kind": "load_perturbation", "duration_s": 20.03}]}
EOT
cs --config short.json --out short track
cs --config short.json --out short perturb
echo '{"envelope": {"P_min": 0.1}, "scenarios": [{"kind": "force_tracking", "waveform": "sine", "center": 0.3, "amplitude": 0.25}]}' > p_min.json
cs --config p_min.json --out p_min track

echo '{"scenarios": [{"kind": "calibration_grid"}]}' > cal.json
cs --config cal.json --out cal simulate
echo '{"scenarios": [{"kind": "isometric_sweep"}, {"kind": "isobaric_sweep"}]}' > sweeps.json
cs --config sweeps.json --out sweeps simulate
cs --config cal.json --out cal fit --model inductance --data cal/calibration_grid.csv
cs --config cal.json --out cal fit --model dynamic --data cal/calibration_grid.csv
cat > fitted.json <<'EOT'
{"scenarios": [{"kind": "cyclic_estimation", "cycle_period_s": 4.0}],
 "paths": {"inductance_params": "cal/inductance_params.json"}}
EOT
cs --config fitted.json --out est simulate
cs --config fitted.json --out est estimate --data est/cyclic_estimation.csv
exit 0
