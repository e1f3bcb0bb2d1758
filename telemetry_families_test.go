package abdhfl

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/consensus"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/realtime"
	"abdhfl/internal/telemetry"
)

// metricLines renders a registry as one sorted line per series. With values
// set, counters and gauges carry their value and histograms their sample
// count — plus their sum, unless they time wall-clock seconds, which no run
// reproduces. Without values only the series names are listed.
func metricLines(reg *telemetry.Registry, values bool) []string {
	snap := reg.Snapshot()
	var lines []string
	for name, v := range snap.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range snap.Gauges {
		lines = append(lines, fmt.Sprintf("%s %.17g", name, v))
	}
	for name, h := range snap.Histograms {
		if strings.Contains(name, "_seconds") {
			lines = append(lines, fmt.Sprintf("%s count=%d", name, h.Count))
		} else {
			lines = append(lines, fmt.Sprintf("%s count=%d sum=%.17g", name, h.Count, h.Sum))
		}
	}
	if !values {
		for i, l := range lines {
			lines[i] = l[:strings.IndexByte(l, ' ')]
		}
	}
	sort.Strings(lines)
	return lines
}

// TestEngineMetricFamilies pins every metric series each engine exports on
// one small fixed scenario: the exact name set for all four engines, and
// every value for the deterministic ones. Refactors of the instrumentation
// must leave this exposition unchanged.
func TestEngineMetricFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s := Scenario{
		Levels: 3, ClusterSize: 4, TopNodes: 4,
		Attack:            AttackSignFlip,
		MaliciousFraction: 0.5,
		Rounds:            2,
		SamplesPerClient:  30,
		TestSamples:       60,
		ValidationSamples: 60,
		EvalEvery:         1,
		Codec:             "int8",
	}.WithDefaults()
	m, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		engine string
		values bool
		run    func() error
	}{
		{"hfl", true, func() error { _, err := m.RunHFL(1); return err }},
		{"vanilla", true, func() error { _, err := m.RunVanilla(1); return err }},
		{"pipeline", true, func() error { _, err := m.RunPipeline(1, 0, pipeline.DefaultTiming()); return err }},
		{"realtime", false, func() error {
			bra, err := aggregate.ByName(s.Aggregator)
			if err != nil {
				return err
			}
			_, err = realtime.Run(realtime.Config{
				Tree:             m.Tree,
				Rounds:           s.Rounds,
				Local:            m.Local,
				PartialBRA:       bra,
				TopVoting:        &consensus.Voting{},
				ClientData:       m.Shards,
				TestData:         m.TestData,
				ValidationShards: m.ValidationShards,
				Seed:             1,
				Telemetry:        m.Telemetry,
			})
			return err
		}},
	}
	for _, r := range runs {
		t.Run(r.engine, func(t *testing.T) {
			m.Telemetry = telemetry.New()
			defer func() { m.Telemetry = nil }()
			if err := r.run(); err != nil {
				t.Fatal(err)
			}
			got := metricLines(m.Telemetry, r.values)
			want := wantMetricFamilies[r.engine]
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				var b strings.Builder
				for _, l := range got {
					fmt.Fprintf(&b, "\t%q,\n", l)
				}
				t.Errorf("exported series differ; got:\n%swant:\n\t%q", b.String(), want)
			}
		})
	}
}

var wantMetricFamilies = map[string][]string{
	"hfl": {
		"abdhfl_accuracy{engine=\"hfl\"} 0.016666666666666666",
		"abdhfl_codec_compression_ratio{engine=\"hfl\"} 7.4757658006979453",
		"abdhfl_codec_wire_bytes_total{engine=\"hfl\"} 1005810",
		"abdhfl_comm_model_transfers_total{engine=\"hfl\"} 390",
		"abdhfl_comm_scalar_messages_total{engine=\"hfl\"} 24",
		"abdhfl_consensus_excluded_total{engine=\"hfl\"} 1",
		"abdhfl_consensus_votes{engine=\"hfl\"} count=8 sum=15",
		"abdhfl_filter_clipped_total{engine=\"hfl\",level=\"0\"} 0",
		"abdhfl_filter_clipped_total{engine=\"hfl\",level=\"1\"} 0",
		"abdhfl_filter_clipped_total{engine=\"hfl\",level=\"2\"} 0",
		"abdhfl_filter_discarded_total{engine=\"hfl\",level=\"0\"} 1",
		"abdhfl_filter_discarded_total{engine=\"hfl\",level=\"1\"} 8",
		"abdhfl_filter_discarded_total{engine=\"hfl\",level=\"2\"} 32",
		"abdhfl_filter_kept_total{engine=\"hfl\",level=\"0\"} 7",
		"abdhfl_filter_kept_total{engine=\"hfl\",level=\"1\"} 24",
		"abdhfl_filter_kept_total{engine=\"hfl\",level=\"2\"} 96",
		"abdhfl_loss{engine=\"hfl\"} 4.7152453263762997",
		"abdhfl_phase_seconds{engine=\"hfl\",phase=\"aggregate\"} count=2",
		"abdhfl_phase_seconds{engine=\"hfl\",phase=\"eval\"} count=2",
		"abdhfl_phase_seconds{engine=\"hfl\",phase=\"train\"} count=2",
		"abdhfl_round_seconds{engine=\"hfl\"} count=2",
		"abdhfl_rounds_total{engine=\"hfl\"} 2",
	},
	"vanilla": {
		"abdhfl_accuracy{engine=\"vanilla\"} 0.016666666666666666",
		"abdhfl_codec_compression_ratio{engine=\"vanilla\"} 7.4757658006979453",
		"abdhfl_codec_wire_bytes_total{engine=\"vanilla\"} 660224",
		"abdhfl_comm_model_transfers_total{engine=\"vanilla\"} 256",
		"abdhfl_comm_scalar_messages_total{engine=\"vanilla\"} 0",
		"abdhfl_consensus_excluded_total{engine=\"vanilla\"} 0",
		"abdhfl_consensus_votes{engine=\"vanilla\"} count=0 sum=0",
		"abdhfl_filter_clipped_total{engine=\"vanilla\",level=\"0\"} 0",
		"abdhfl_filter_discarded_total{engine=\"vanilla\",level=\"0\"} 32",
		"abdhfl_filter_kept_total{engine=\"vanilla\",level=\"0\"} 96",
		"abdhfl_loss{engine=\"vanilla\"} 3.5593581841904407",
		"abdhfl_phase_seconds{engine=\"vanilla\",phase=\"aggregate\"} count=2",
		"abdhfl_phase_seconds{engine=\"vanilla\",phase=\"eval\"} count=2",
		"abdhfl_phase_seconds{engine=\"vanilla\",phase=\"train\"} count=2",
		"abdhfl_round_seconds{engine=\"vanilla\"} count=2",
		"abdhfl_rounds_total{engine=\"vanilla\"} 2",
	},
	"pipeline": {
		"abdhfl_abandoned_collections_total{engine=\"pipeline\"} 0",
		"abdhfl_accuracy{engine=\"pipeline\"} 0.13333333333333333",
		"abdhfl_codec_compression_ratio{engine=\"pipeline\"} 7.4757658006979453",
		"abdhfl_codec_wire_bytes_total{engine=\"pipeline\",hop=\"flag\"} 433272",
		"abdhfl_codec_wire_bytes_total{engine=\"pipeline\",hop=\"global\"} 433272",
		"abdhfl_codec_wire_bytes_total{engine=\"pipeline\",hop=\"partial\"} 103160",
		"abdhfl_codec_wire_bytes_total{engine=\"pipeline\",hop=\"uplink\"} 330112",
		"abdhfl_consensus_excluded_total{engine=\"pipeline\"} 0",
		"abdhfl_consensus_votes{engine=\"pipeline\"} count=8 sum=29",
		"abdhfl_filter_clipped_total{engine=\"pipeline\",level=\"0\"} 0",
		"abdhfl_filter_clipped_total{engine=\"pipeline\",level=\"1\"} 0",
		"abdhfl_filter_clipped_total{engine=\"pipeline\",level=\"2\"} 0",
		"abdhfl_filter_discarded_total{engine=\"pipeline\",level=\"0\"} 0",
		"abdhfl_filter_discarded_total{engine=\"pipeline\",level=\"1\"} 8",
		"abdhfl_filter_discarded_total{engine=\"pipeline\",level=\"2\"} 32",
		"abdhfl_filter_kept_total{engine=\"pipeline\",level=\"0\"} 8",
		"abdhfl_filter_kept_total{engine=\"pipeline\",level=\"1\"} 24",
		"abdhfl_filter_kept_total{engine=\"pipeline\",level=\"2\"} 96",
		"abdhfl_omitted_uploads_total{engine=\"pipeline\"} 0",
		"abdhfl_pipeline_mean_nu 0",
		"abdhfl_pipeline_merged_globals_total 0",
		"abdhfl_pipeline_nu count=1 sum=0",
		"abdhfl_pipeline_sigma_vms{phase=\"global\"} count=1 sum=0",
		"abdhfl_pipeline_sigma_vms{phase=\"partial\"} count=1 sum=0",
		"abdhfl_pipeline_sigma_vms{phase=\"total\"} count=1 sum=113.09603441626737",
		"abdhfl_pipeline_sigma_vms{phase=\"wait\"} count=1 sum=113.09603441626737",
		"abdhfl_pipeline_staleness_vms count=0 sum=0",
		"abdhfl_rounds_total{engine=\"pipeline\"} 2",
		"abdhfl_simnet_dropped_total{reason=\"fault\"} 0",
		"abdhfl_simnet_dropped_total{reason=\"unregistered\"} 0",
		"abdhfl_simnet_duplicated_total 0",
		"abdhfl_subquorum_aggregations_total{engine=\"pipeline\"} 0",
	},
	"realtime": {
		"abdhfl_abandoned_collections_total{engine=\"realtime\"}",
		"abdhfl_accuracy{engine=\"realtime\"}",
		"abdhfl_consensus_excluded_total{engine=\"realtime\"}",
		"abdhfl_consensus_votes{engine=\"realtime\"}",
		"abdhfl_filter_clipped_total{engine=\"realtime\",level=\"0\"}",
		"abdhfl_filter_clipped_total{engine=\"realtime\",level=\"1\"}",
		"abdhfl_filter_clipped_total{engine=\"realtime\",level=\"2\"}",
		"abdhfl_filter_discarded_total{engine=\"realtime\",level=\"0\"}",
		"abdhfl_filter_discarded_total{engine=\"realtime\",level=\"1\"}",
		"abdhfl_filter_discarded_total{engine=\"realtime\",level=\"2\"}",
		"abdhfl_filter_kept_total{engine=\"realtime\",level=\"0\"}",
		"abdhfl_filter_kept_total{engine=\"realtime\",level=\"1\"}",
		"abdhfl_filter_kept_total{engine=\"realtime\",level=\"2\"}",
		"abdhfl_omitted_uploads_total{engine=\"realtime\"}",
		"abdhfl_realtime_merged_globals_total",
		"abdhfl_rounds_total{engine=\"realtime\"}",
		"abdhfl_subquorum_aggregations_total{engine=\"realtime\"}",
	},
}
