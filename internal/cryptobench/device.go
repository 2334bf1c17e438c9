package cryptobench

// DeviceProfile models one of the paper's three measurement platforms
// (Table 2, Table 3). We measure on the host we run on and rescale by a
// per-device CPU factor calibrated from the paper's XOR-encryption row
// (phone 15,026 — laptop 943,902 — server 1,351,937 ops/sec). This
// preserves the paper's cross-device *shape* without the actual
// hardware; see DESIGN.md §2.
type DeviceProfile struct {
	Name  string
	Scale float64 // multiplier on host-measured throughput
}

// The three platforms of the paper's Tables 2 and 3, normalized so the
// server equals the measurement host.
var (
	devicePhone  = DeviceProfile{Name: "Phone", Scale: 15026.0 / 1351937.0}
	deviceLaptop = DeviceProfile{Name: "Laptop", Scale: 943902.0 / 1351937.0}
	deviceServer = DeviceProfile{Name: "Server", Scale: 1.0}
)

// Devices lists the profiles in the paper's column order.
func Devices() []DeviceProfile {
	return []DeviceProfile{devicePhone, deviceLaptop, deviceServer}
}

// OpsPerSec converts a host-measured ns/op cost into the profile's
// estimated operations per second.
func (d DeviceProfile) OpsPerSec(nsPerOp float64) float64 {
	if nsPerOp <= 0 {
		return 0
	}
	return 1e9 / nsPerOp * d.Scale
}
