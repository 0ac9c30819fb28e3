// Package hw describes the heterogeneous platforms GNN training runs on:
// a general-purpose host (sampling, file I/O), a throughput-oriented
// device (aggregate/combine), and the host-device link between them.
//
// The paper's estimator treats hardware exactly as (throughput, bandwidth,
// capacity) tuples — Eqs. 5–8 condition on "Host" and "Device" terms — so
// this package makes that abstraction concrete. Profiles are shaped like
// the boards named in §4.1 (RTX 4090, A100, and the constrained "M90");
// effective rates are deliberately far below peak spec because sparse GNN
// kernels are memory-bound.
package hw

import (
	"fmt"
	"maps"
	"slices"
)

// Host models the CPU side: sampling and feature gathering.
type Host struct {
	Name  string
	Cores int
	// SampleEdgesPerSec is the per-core neighbor-expansion throughput
	// (sampled edges per second).
	SampleEdgesPerSec float64
	// GatherBytesPerSec is the host-memory feature-gather bandwidth.
	GatherBytesPerSec float64
}

// Device models the accelerator: compute throughput and memory.
type Device struct {
	Name string
	// EffGFLOPS is the effective (not peak) GFLOP/s sustained on sparse
	// GNN aggregate/combine kernels.
	EffGFLOPS float64
	// MemBytesPerSec is device-memory bandwidth.
	MemBytesPerSec float64
	// MemCapacityBytes is total device memory.
	MemCapacityBytes float64
	// KernelLaunchSec is the fixed overhead per kernel launch.
	KernelLaunchSec float64
}

// Link models the host-device interconnect (PCIe/DMA).
type Link struct {
	Name        string
	BytesPerSec float64
	// LatencySec is the per-transfer fixed cost.
	LatencySec float64
}

// Platform bundles a host, device and link. Multi-device platforms set
// Devices > 1 and describe the device-to-device fabric in Interconnect;
// every device is an identical copy of Device with its own host link.
type Platform struct {
	Host   Host
	Device Device
	Link   Link

	// Devices is the number of identical accelerators (0 or 1 = single
	// device).
	Devices int
	// Interconnect is the device-to-device fabric (NVLink, PCIe peer)
	// carrying halo-exchange and all-reduce traffic. Only consulted when
	// Devices > 1.
	Interconnect Link
}

// DeviceCount returns the effective device count (Devices, floored at 1).
func (p Platform) DeviceCount() int {
	if p.Devices < 1 {
		return 1
	}
	return p.Devices
}

// Validate checks that all rates and capacities are positive, fixed
// overheads are non-negative, and multi-device platforms describe their
// interconnect.
func (p Platform) Validate() error {
	if p.Host.Cores < 1 || p.Host.SampleEdgesPerSec <= 0 || p.Host.GatherBytesPerSec <= 0 {
		return fmt.Errorf("hw: invalid host %+v", p.Host)
	}
	if p.Device.EffGFLOPS <= 0 || p.Device.MemBytesPerSec <= 0 || p.Device.MemCapacityBytes <= 0 {
		return fmt.Errorf("hw: invalid device %+v", p.Device)
	}
	if p.Device.KernelLaunchSec < 0 {
		return fmt.Errorf("hw: negative kernel launch overhead %v", p.Device.KernelLaunchSec)
	}
	if p.Link.BytesPerSec <= 0 || p.Link.LatencySec < 0 {
		return fmt.Errorf("hw: invalid link %+v", p.Link)
	}
	if p.Devices < 0 {
		return fmt.Errorf("hw: negative device count %d", p.Devices)
	}
	if p.DeviceCount() > 1 {
		if p.Interconnect.BytesPerSec <= 0 || p.Interconnect.LatencySec < 0 {
			return fmt.Errorf("hw: %d devices but invalid interconnect %+v", p.Devices, p.Interconnect)
		}
	}
	return nil
}

const (
	// GiB is 2^30 bytes.
	GiB = 1024 * 1024 * 1024
	// GB is 10^9 bytes.
	GB = 1e9
)

// RTX4090 is a high-end workstation platform over PCIe 4.0 x16.
func RTX4090() Platform {
	return Platform{
		Host: Host{Name: "xeon-32c", Cores: 32, SampleEdgesPerSec: 2.5e6, GatherBytesPerSec: 18 * GB},
		Device: Device{
			Name: "rtx4090", EffGFLOPS: 9000, MemBytesPerSec: 1008 * GB,
			MemCapacityBytes: 24 * GiB, KernelLaunchSec: 8e-6,
		},
		Link: Link{Name: "pcie4x16", BytesPerSec: 26 * GB, LatencySec: 12e-6},
	}
}

// A100 is a datacenter platform with NVLink-class bandwidth to host.
func A100() Platform {
	return Platform{
		Host: Host{Name: "epyc-64c", Cores: 64, SampleEdgesPerSec: 2.2e6, GatherBytesPerSec: 30 * GB},
		Device: Device{
			Name: "a100-80g", EffGFLOPS: 12000, MemBytesPerSec: 2039 * GB,
			MemCapacityBytes: 80 * GiB, KernelLaunchSec: 6e-6,
		},
		Link: Link{Name: "pcie4x16", BytesPerSec: 28 * GB, LatencySec: 10e-6},
	}
}

// M90 is the paper's constrained mid-range device: modest compute, small
// memory — the regime where cache-ratio choices matter most.
func M90() Platform {
	return Platform{
		Host: Host{Name: "desktop-16c", Cores: 16, SampleEdgesPerSec: 1.8e6, GatherBytesPerSec: 12 * GB},
		Device: Device{
			Name: "m90", EffGFLOPS: 2500, MemBytesPerSec: 350 * GB,
			MemCapacityBytes: 8 * GiB, KernelLaunchSec: 15e-6,
		},
		Link: Link{Name: "pcie3x16", BytesPerSec: 13 * GB, LatencySec: 18e-6},
	}
}

// CPUOnly models an Aligraph/Euler-style CPU-only deployment (§2.2):
// "device" compute runs on the same socket as the host, so the link is
// effectively a memcpy within system memory — near-infinite bandwidth and
// no transfer latency — but compute throughput is an order of magnitude
// below an accelerator. Caching buys nothing here; compute dominates.
func CPUOnly() Platform {
	return Platform{
		Host: Host{Name: "epyc-64c", Cores: 64, SampleEdgesPerSec: 2.2e6, GatherBytesPerSec: 30 * GB},
		Device: Device{
			Name: "cpu-only", EffGFLOPS: 450, MemBytesPerSec: 200 * GB,
			MemCapacityBytes: 256 * GiB, KernelLaunchSec: 1e-6,
		},
		Link: Link{Name: "memcpy", BytesPerSec: 100 * GB, LatencySec: 1e-7},
	}
}

// NVLink is a third-generation NVLink-class device fabric.
func NVLink() Link {
	return Link{Name: "nvlink3", BytesPerSec: 300 * GB, LatencySec: 2e-6}
}

// PCIePeer is peer-to-peer DMA over a shared PCIe switch — the fallback
// fabric for boards without a dedicated link.
func PCIePeer() Link {
	return Link{Name: "pcie-peer", BytesPerSec: 13 * GB, LatencySec: 25e-6}
}

// profiles is the named-platform table, built once. The "-Ng" variants
// cap device memory at N GiB — the paper's "manual constraints to
// simulate various scenarios of application" (§4.1) — and the "xN"
// variants replicate the board N times behind a device interconnect.
var profiles = map[string]Platform{
	"rtx4090":    RTX4090(),
	"rtx4090-8g": RTX4090().WithMemory(8 * GiB),
	"rtx4090x2":  RTX4090().WithDevices(2, PCIePeer()),
	"a100":       A100(),
	"a100x4":     A100().WithDevices(4, NVLink()),
	"m90":        M90(),
	"m90-2g":     M90().WithMemory(2 * GiB),
	"m90x4":      M90().WithDevices(4, PCIePeer()),
	"cpu-only":   CPUOnly(),
}

// Profile returns the named platform and whether the name is known.
func Profile(name string) (Platform, bool) {
	p, ok := profiles[name]
	return p, ok
}

// ProfileNames returns the profile keys sorted ascending, so help text
// and error messages list platforms in a stable order instead of map
// order.
func ProfileNames() []string {
	return slices.Sorted(maps.Keys(profiles))
}

// WithDevices returns a copy of p with n identical devices joined by the
// given interconnect.
func (p Platform) WithDevices(n int, interconnect Link) Platform {
	out := p
	out.Devices = n
	out.Interconnect = interconnect
	return out
}

// WithMemory returns a copy of p whose device memory is capped at bytes —
// the paper's "resource-limited circumstances" (Pa-Low) and "manual
// constraints to simulate various scenarios of application".
func (p Platform) WithMemory(bytes float64) Platform {
	out := p
	out.Device.MemCapacityBytes = bytes
	return out
}
