package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"privapprox/internal/minisql"
)

func TestTaxiDistanceCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	under1 := 0
	for i := 0; i < n; i++ {
		d := TaxiDistance(rng)
		if d <= 0 {
			t.Fatalf("non-positive distance %v", d)
		}
		if d < 1 {
			under1++
		}
	}
	frac := float64(under1) / n
	if math.Abs(frac-TaxiFirstBucketFraction) > 0.01 {
		t.Errorf("P(d<1) = %v, want ≈%v (paper calibration)", frac, TaxiFirstBucketFraction)
	}
}

func TestTaxiBucketsAndQuery(t *testing.T) {
	buckets, err := TaxiBuckets()
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 11 {
		t.Fatalf("buckets = %d, want 11", len(buckets))
	}
	q, err := TaxiQuery("a", 1, time.Second, time.Minute, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.SQL == "" || len(q.Buckets) != 11 {
		t.Error("query malformed")
	}
}

func TestPopulateTaxi(t *testing.T) {
	db := minisql.NewDB()
	rng := rand.New(rand.NewSource(2))
	if err := PopulateTaxi(db, rng, 10, time.Unix(1000, 0), time.Minute); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT distance FROM rides WHERE ts >= 1000")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 10 {
		t.Errorf("rows = %d", len(rows.Rows))
	}
}

func TestElectricityUsageShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 20000
	var evening, night float64
	for i := 0; i < n; i++ {
		e := electricityUsage(rng, 19)
		v := electricityUsage(rng, 4)
		if e < 0 || e >= electricityMaxKWh || v < 0 || v >= electricityMaxKWh {
			t.Fatalf("usage out of range: %v %v", e, v)
		}
		evening += e
		night += v
	}
	if evening <= night {
		t.Errorf("diurnal shape wrong: evening %v ≤ night %v", evening/n, night/n)
	}
}

func TestElectricityBucketsAndQuery(t *testing.T) {
	buckets, err := electricityBuckets()
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 6 {
		t.Fatalf("buckets = %d, want 6", len(buckets))
	}
	q, err := ElectricityQuery("a", 2, time.Second, 30*time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPopulateElectricity(t *testing.T) {
	db := minisql.NewDB()
	rng := rand.New(rand.NewSource(4))
	if err := PopulateElectricity(db, rng, 8, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	n, err := db.RowCount("consumption")
	if err != nil || n != 8 {
		t.Errorf("rows = %d, %v", n, err)
	}
}

func TestTrueDistribution(t *testing.T) {
	buckets, _ := TaxiBuckets()
	counts := trueDistribution(buckets, []float64{0.5, 1.5, 1.7, 25})
	if counts[0] != 1 || counts[1] != 2 || counts[10] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestYesFractionPopulation(t *testing.T) {
	pop := yesFractionPopulation(10, 0.6)
	yes := 0
	for _, b := range pop {
		if b {
			yes++
		}
	}
	if yes != 6 {
		t.Errorf("yes = %d, want 6", yes)
	}
	if len(yesFractionPopulation(0, 0.5)) != 0 {
		t.Error("empty population mishandled")
	}
}
