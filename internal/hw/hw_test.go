package hw

import "testing"

func TestProfilesAllValid(t *testing.T) {
	if len(profiles) < 3 {
		t.Fatalf("only %d profiles", len(profiles))
	}
	for name, p := range profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
	}
}

func TestProfileOrdering(t *testing.T) {
	// The datacenter part must out-spec the constrained part on every axis
	// the simulator consumes.
	a100, m90 := A100(), M90()
	if a100.Device.EffGFLOPS <= m90.Device.EffGFLOPS {
		t.Error("A100 compute not above M90")
	}
	if a100.Device.MemBytesPerSec <= m90.Device.MemBytesPerSec {
		t.Error("A100 memory bandwidth not above M90")
	}
	if a100.Device.MemCapacityBytes <= m90.Device.MemCapacityBytes {
		t.Error("A100 capacity not above M90")
	}
	if a100.Link.BytesPerSec <= m90.Link.BytesPerSec {
		t.Error("A100 link not above M90")
	}
}

func TestValidateRejectsBadPlatforms(t *testing.T) {
	good := RTX4090()
	cases := []struct {
		name   string
		mutate func(*Platform)
	}{
		{"zero cores", func(p *Platform) { p.Host.Cores = 0 }},
		{"zero sample rate", func(p *Platform) { p.Host.SampleEdgesPerSec = 0 }},
		{"zero gflops", func(p *Platform) { p.Device.EffGFLOPS = 0 }},
		{"zero device bw", func(p *Platform) { p.Device.MemBytesPerSec = 0 }},
		{"zero capacity", func(p *Platform) { p.Device.MemCapacityBytes = 0 }},
		{"zero link", func(p *Platform) { p.Link.BytesPerSec = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := good
			tc.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

func TestWithMemoryDoesNotMutateOriginal(t *testing.T) {
	orig := RTX4090()
	capped := orig.WithMemory(1 * GiB)
	if capped.Device.MemCapacityBytes != 1*GiB {
		t.Errorf("capped capacity = %v", capped.Device.MemCapacityBytes)
	}
	if orig.Device.MemCapacityBytes != 24*GiB {
		t.Error("WithMemory mutated the original")
	}
}

func TestCPUOnlyShape(t *testing.T) {
	cpu := CPUOnly()
	if err := cpu.Validate(); err != nil {
		t.Fatal(err)
	}
	gpu := RTX4090()
	if cpu.Device.EffGFLOPS >= gpu.Device.EffGFLOPS {
		t.Error("CPU compute not below GPU")
	}
	// The defining property: transfers are nearly free relative to PCIe.
	if cpu.Link.BytesPerSec <= gpu.Link.BytesPerSec {
		t.Error("CPU-only memcpy link not faster than PCIe")
	}
	if cpu.Link.LatencySec >= gpu.Link.LatencySec {
		t.Error("CPU-only link latency not below PCIe")
	}
}

func TestCappedVariantsPresent(t *testing.T) {
	full, ok1 := profiles["rtx4090"]
	capped, ok2 := profiles["rtx4090-8g"]
	if !ok1 || !ok2 {
		t.Fatal("expected rtx4090 and rtx4090-8g profiles")
	}
	if capped.Device.MemCapacityBytes >= full.Device.MemCapacityBytes {
		t.Error("capped variant not smaller than full")
	}
	// Only memory differs.
	if capped.Device.EffGFLOPS != full.Device.EffGFLOPS {
		t.Error("capped variant changed compute")
	}
}

func TestValidateRejectsNegativeOverheads(t *testing.T) {
	good := RTX4090()
	cases := []struct {
		name   string
		mutate func(*Platform)
	}{
		{"negative kernel launch", func(p *Platform) { p.Device.KernelLaunchSec = -1e-6 }},
		{"negative link latency", func(p *Platform) { p.Link.LatencySec = -1e-6 }},
		{"negative device count", func(p *Platform) { p.Devices = -1 }},
		{"multi-device no interconnect", func(p *Platform) { p.Devices = 2 }},
		{"negative interconnect latency", func(p *Platform) {
			p.Devices = 2
			p.Interconnect = Link{Name: "bad", BytesPerSec: 1 * GB, LatencySec: -1}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := good
			tc.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

func TestProfileNamesSorted(t *testing.T) {
	names := ProfileNames()
	if len(names) != len(profiles) {
		t.Fatalf("ProfileNames lists %d profiles, map has %d", len(names), len(profiles))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	for _, n := range names {
		if _, ok := profiles[n]; !ok {
			t.Fatalf("ProfileNames lists unknown profile %q", n)
		}
	}
}

func TestMultiDeviceProfiles(t *testing.T) {
	for name, wantK := range map[string]int{"rtx4090x2": 2, "a100x4": 4, "m90x4": 4} {
		p, ok := profiles[name]
		if !ok {
			t.Fatalf("missing profile %q", name)
		}
		if p.DeviceCount() != wantK {
			t.Errorf("%s: DeviceCount = %d, want %d", name, p.DeviceCount(), wantK)
		}
		if p.Interconnect.BytesPerSec <= 0 {
			t.Errorf("%s: no interconnect bandwidth", name)
		}
	}
	// Single-device profiles report a count of 1 without setting Devices.
	if got := RTX4090().DeviceCount(); got != 1 {
		t.Errorf("single-device DeviceCount = %d, want 1", got)
	}
	// WithDevices must not mutate the original.
	orig := A100()
	_ = orig.WithDevices(4, NVLink())
	if orig.Devices != 0 {
		t.Error("WithDevices mutated the original")
	}
	// NVLink-class fabric should be much faster than PCIe peer DMA.
	if NVLink().BytesPerSec <= PCIePeer().BytesPerSec {
		t.Error("NVLink not faster than PCIe peer")
	}
}
