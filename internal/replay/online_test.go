package replay_test

import (
	"fmt"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/experiments"
	"smpigo/internal/replay"
	"smpigo/internal/smpi"
	"smpigo/internal/trace"
)

// TestReplayIsOnlineOnRecordingPlatform records every built-in app on
// griffon under three models (the calibrated default affine and piece-wise
// linear, and smpi's default, ideal) and replays each trace under the
// platform and model it was recorded with: the replay must reproduce the
// on-line run exactly — the same simulated time to the last bit, the same
// messages and bytes. (Replayed elsewhere, a trace only approximates the
// on-line run; see TestReplayOnDifferentPlatform.)
func TestReplayIsOnlineOnRecordingPlatform(t *testing.T) {
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"default", "ideal", "piecewise"} {
		for _, app := range experiments.AppNames() {
			for _, np := range []int{2, 3, 4, 8, 16} {
				for _, size := range []int64{8, core.KiB, 32 * core.KiB, 256 * core.KiB} {
					body, procs, err := experiments.AppRank(app, size)
					if err != nil {
						t.Fatal(err)
					}
					if procs != 0 && procs != np {
						continue
					}
					t.Run(fmt.Sprintf("%s/%s/np%d/%s", model, app, np, core.FormatBytes(size)), func(t *testing.T) {
						cfg, err := env.Config(env.Griffon, "surf", model)
						if err != nil {
							t.Fatal(err)
						}
						tr := trace.New(np)
						cfg.Procs, cfg.Tracer = np, tr
						online, err := smpi.Run(cfg, body)
						if err != nil {
							t.Fatal(err)
						}
						replayed, procs, err := replay.App(tr)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Procs, cfg.Tracer = procs, nil
						offline, err := smpi.Run(cfg, replayed)
						if err != nil {
							t.Fatal(err)
						}
						if offline.SimulatedTime != online.SimulatedTime ||
							offline.Messages != online.Messages || offline.BytesOnWire != online.BytesOnWire {
							t.Errorf("replay %v, %d messages, %d bytes; on-line %v, %d messages, %d bytes",
								offline.SimulatedTime, offline.Messages, offline.BytesOnWire,
								online.SimulatedTime, online.Messages, online.BytesOnWire)
						}
					})
				}
			}
		}
	}
}
