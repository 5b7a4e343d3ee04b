package surgery

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/frontier_golden.txt from the current build")

const goldenPath = "testdata/frontier_golden.txt"

// goldenFrontierKeys is the pinned corpus, built on the default grid:
// multi-entry unconstrained keys plus one key per constraint family.
func goldenFrontierKeys(t *testing.T) []struct {
	name string
	key  FrontierKey
} {
	t.Helper()
	hw := func(name string) *hardware.Profile {
		p, err := hardware.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	key := func(m *dnn.Model, dev, srv string, uplinkBps float64) FrontierKey {
		return FrontierKey{
			Model:      m,
			Device:     hw(dev),
			Server:     hw(srv),
			UplinkBps:  uplinkBps,
			RTT:        0.004,
			Rate:       0.05,
			Difficulty: workload.EasyBiased,
			Curves:     DefaultCurves(),
		}
	}
	accFloor := key(dnn.AlexNet(), "rpi4", "edge-gpu-t4", 100e6)
	accFloor.MinAccuracy = 0.65
	energy := key(dnn.ResNet18(), "rpi4", "edge-gpu-t4", 100e6)
	// A budget above the local-only plan's compute energy keeps every
	// grid cell feasible while excluding radio-heavy plans at small
	// bandwidth shares.
	local, err := Evaluate(LocalOnly(energy.Model), energy.env(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	energy.MaxDeviceEnergyJ = 1.2 * local.DeviceEnergyAt(energy.Device, 1)
	noExits := key(dnn.ResNet18(), "rpi4", "edge-gpu-t4", 100e6)
	noExits.NoExits = true
	deviceOnly := key(dnn.ResNet18(), "rpi4", "edge-gpu-t4", 100e6)
	deviceOnly.Server, deviceOnly.UplinkBps, deviceOnly.RTT = nil, 0, 0
	txCompressed := key(dnn.VGG16(), "rpi4", "edge-gpu-t4", 100e6)
	txCompressed.TxFactor = 0.25
	txCompressed.Difficulty = workload.Bimodal
	return []struct {
		name string
		key  FrontierKey
	}{
		{"resnet18-rpi4-t4-100M", key(dnn.ResNet18(), "rpi4", "edge-gpu-t4", 100e6)},
		{"resnet34-rpi4-cpu-20M", key(dnn.ResNet34(), "rpi4", "edge-cpu-16c", 20e6)},
		{"alexnet-phone-t4-100M", key(dnn.AlexNet(), "phone-soc", "edge-gpu-t4", 100e6)},
		{"vgg16-rpi4-t4-tx0.25-bimodal", txCompressed},
		{"accuracy-floor", accFloor},
		{"energy-budget", energy},
		{"no-exits", noExits},
		{"device-only", deviceOnly},
	}
}

// frontierDigest hashes everything a table holds: the probe count, every
// entry's plan and the bit patterns of every Eval field, and the cell map.
func frontierDigest(t *Frontier) string {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	put(int64(t.Probes()))
	put(int64(len(t.entries)))
	for _, e := range t.entries {
		put(int64(e.Plan.Partition))
		put(math.Float64bits(e.Plan.Theta))
		put(int64(len(e.Plan.Exits)))
		for _, x := range e.Plan.Exits {
			put(int64(x))
		}
		ev := e.Eval
		for _, f := range []float64{ev.Latency, ev.Accuracy, ev.FixedSec, ev.ServerSec, ev.TxSec, ev.CrossProb, ev.DeviceSec} {
			put(math.Float64bits(f))
		}
		put(int64(len(ev.ExitProbs)))
		for _, f := range ev.ExitProbs {
			put(math.Float64bits(f))
		}
	}
	put(int64(len(t.cells)))
	put(t.cells)
	return hex.EncodeToString(h.Sum(nil))
}

// TestFrontierGoldenDigest pins frontier tables across versions: the
// digests in testdata were recorded from an independent build of the
// optimizer, so any change to a plan, a probe count or a single bit of an
// evaluation fails here even when the optimizer and the table builder
// change together. The digests cover exact float bit patterns, which the
// Go spec only fixes on architectures that do not fuse multiply-adds.
func TestFrontierGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds eight default-grid tables")
	}
	got := map[string]string{}
	var names []string
	for _, c := range goldenFrontierKeys(t) {
		table, err := BuildFrontier(c.key, BuildOptions{Surgery: Options{FixedPartition: FreePartition}})
		if err != nil {
			t.Fatalf("%s: build failed: %v", c.name, err)
		}
		got[c.name] = fmt.Sprintf("%s probes=%d entries=%d", frontierDigest(table), table.Probes(), len(table.Entries()))
		names = append(names, c.name)
	}
	if *updateGolden {
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float bits were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), " ")
		if ok {
			want[name] = rest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if want[n] != got[n] {
			t.Errorf("%s: table digest changed\n  got:  %s\n  want: %s", n, got[n], want[n])
		}
	}
	if len(want) != len(names) {
		t.Errorf("golden file has %d keys, corpus has %d", len(want), len(names))
	}
}
