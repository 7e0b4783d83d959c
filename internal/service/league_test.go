package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"adhocga"
	"adhocga/internal/jobstore"
	"adhocga/internal/league"
)

// checkpointSpec is smokeSpec with generation checkpoints enabled:
// 2 replicates × checkpoints at generations 0 and 1 (the final
// generation is always checkpointed) = 4 champions.
const checkpointSpec = `{
  "name": "svc-smoke",
  "environments": [{"csn": 0}],
  "population": 20,
  "tournament_size": 10,
  "generations": 2,
  "rounds": 10,
  "repetitions": 2,
  "seed": 42,
  "checkpoints": 2
}`

// newLeagueServer builds a server over the given store whose session
// holds a champion archive.
func newLeagueServer(t *testing.T, store jobstore.Store, arch *league.Archive) (string, *Server) {
	t.Helper()
	srv, s := newDurableServer(t, store, Options{}, adhocga.WithChampionArchive(arch))
	return srv.URL, s
}

// harvestChampions submits the checkpointed smoke job and waits it out.
func harvestChampions(t *testing.T, base string) JobInfo {
	t.Helper()
	submit := fmt.Sprintf(`{"scenarios": %s, "scale": "smoke", "parallelism": 1}`, checkpointSpec)
	code, resp := doJSON(t, http.MethodPost, base+"/v1/jobs", submit)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var info JobInfo
	if err := json.Unmarshal(resp, &info); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, base, info.ID)
	if final.State != string(adhocga.JobDone) {
		t.Fatalf("harvest job ended %q (error %q)", final.State, final.Error)
	}
	return final
}

func TestLeagueEndpointsWithoutArchive(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/champions"},
		{http.MethodGet, "/v1/champions/some/id"},
		{http.MethodPost, "/v1/league"},
	} {
		code, body := doJSON(t, probe.method, srv.URL+probe.path, "{}")
		if code != http.StatusServiceUnavailable {
			t.Errorf("%s %s without archive: %d %s", probe.method, probe.path, code, body)
		}
	}
}

type championsPage struct {
	Champions []league.Champion `json:"champions"`
	Count     int               `json:"count"`
	Archive   string            `json:"archive"`
}

func TestChampionsAndLeagueEndToEnd(t *testing.T) {
	arch := league.NewMemArchive()
	base, _ := newLeagueServer(t, jobstore.NewMem(), arch)
	job := harvestChampions(t, base)

	// An empty league over an empty... no: the archive is populated now.
	code, body := doJSON(t, http.MethodGet, base+"/v1/champions", "")
	if code != http.StatusOK {
		t.Fatalf("champions: %d %s", code, body)
	}
	var page championsPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if page.Count != 4 || len(page.Champions) != 4 {
		t.Fatalf("champions count %d (%d entries), want 4: %s", page.Count, len(page.Champions), body)
	}
	if page.Archive != "mem" {
		t.Fatalf("archive backend %q", page.Archive)
	}
	for _, c := range page.Champions {
		if c.Job != job.ID || c.Genome == "" || c.Category == "" {
			t.Fatalf("champion %+v incomplete", c)
		}
	}

	// Filters: by job (hit and miss) and by category.
	code, body = doJSON(t, http.MethodGet, base+"/v1/champions?job=no-such-job", "")
	if code != http.StatusOK {
		t.Fatalf("filtered champions: %d", code)
	}
	var empty championsPage
	if err := json.Unmarshal(body, &empty); err != nil {
		t.Fatal(err)
	}
	if empty.Count != 0 {
		t.Fatalf("job filter matched %d, want 0", empty.Count)
	}
	cat := page.Champions[0].Category
	code, body = doJSON(t, http.MethodGet, base+"/v1/champions?category="+url.QueryEscape(cat), "")
	if code != http.StatusOK {
		t.Fatalf("category filter: %d", code)
	}
	var byCat championsPage
	if err := json.Unmarshal(body, &byCat); err != nil {
		t.Fatal(err)
	}
	if byCat.Count == 0 {
		t.Fatalf("category filter %q matched nothing", cat)
	}

	// Single champion by its slash-bearing ID.
	id := page.Champions[0].ID
	code, body = doJSON(t, http.MethodGet, base+"/v1/champions/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("champion %q: %d %s", id, code, body)
	}
	var c league.Champion
	if err := json.Unmarshal(body, &c); err != nil {
		t.Fatal(err)
	}
	if c.ID != id {
		t.Fatalf("champion ID %q, want %q", c.ID, id)
	}
	if code, _ = doJSON(t, http.MethodGet, base+"/v1/champions/definitely/not/there", ""); code != http.StatusNotFound {
		t.Fatalf("unknown champion: %d, want 404", code)
	}

	// The league job: accepted, runs on the session, lands a table.
	code, body = doJSON(t, http.MethodPost, base+"/v1/league",
		`{"baselines": true, "per_side": 2, "matches_per_pair": 1, "rounds": 10, "seed": 7}`)
	if code != http.StatusAccepted {
		t.Fatalf("league submit: %d %s", code, body)
	}
	var handle JobInfo
	if err := json.Unmarshal(body, &handle); err != nil {
		t.Fatal(err)
	}
	if handle.Kind != "league" {
		t.Fatalf("league job kind %q", handle.Kind)
	}
	final := waitState(t, base, handle.ID)
	if final.State != string(adhocga.JobDone) {
		t.Fatalf("league job ended %q (error %q)", final.State, final.Error)
	}
	if final.League == nil {
		t.Fatalf("finished league job has no table: %+v", final)
	}
	if want := 4 + 3; len(final.League.Seats) != want {
		t.Fatalf("league seated %d, want %d champions + 3 baselines", len(final.League.Seats), want)
	}
	if final.League.Standings[0].Name == "" {
		t.Fatal("league has no winner")
	}

	// Malformed and unsatisfiable submissions.
	code, body = doJSON(t, http.MethodPost, base+"/v1/league", `{"champions": ["missing"]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("league with unknown champion: %d %s, want 400", code, body)
	}
	if code, body = doJSON(t, http.MethodPost, base+"/v1/league", `{not json`); code != http.StatusBadRequest {
		t.Fatalf("bad body: %d %s", code, body)
	}
}

func TestLeagueRejectsEmptySeating(t *testing.T) {
	arch := league.NewMemArchive()
	base, _ := newLeagueServer(t, jobstore.NewMem(), arch)
	// Empty archive, no baselines: nothing could ever be seated.
	code, body := doJSON(t, http.MethodPost, base+"/v1/league", `{"seed": 1}`)
	if code != http.StatusBadRequest {
		t.Fatalf("empty seating: %d %s, want 400", code, body)
	}
}

// TestLeagueRejectsUnseatableLeague: a league naming a champion the
// archive does not hold, seating fewer than two, or seating one twice
// can never play, so it is a 400 that says why and writes no record, as
// `adhocga league` exits 2 for it.
func TestLeagueRejectsUnseatableLeague(t *testing.T) {
	arch := league.NewMemArchive()
	champ := league.Champion{ID: league.ChampionID("job-1", "x", 0, 1), Genome: "0101011011111"}
	if err := champ.Fill(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Put(champ); err != nil {
		t.Fatal(err)
	}
	store := jobstore.NewMem()
	base, _ := newLeagueServer(t, store, arch)
	for _, tc := range []struct{ body, want string }{
		{`{"champions":["nope/x/r0/g1"],"baselines":true}`, `unknown champion \"nope/x/r0/g1\"`},
		{`{"champions":["job-1/x/r0/g1"]}`, "only 1 seats"},
		{`{"champions":["job-1/x/r0/g1","job-1/x/r0/g1"]}`, `duplicate seat \"champion/job-1/x/r0/g1\"`},
	} {
		code, body := doJSON(t, http.MethodPost, base+"/v1/league", tc.body)
		if code != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Fatalf("%s: %d %s, want 400 saying %s", tc.body, code, body, tc.want)
		}
	}
	if recs, err := store.List(); err != nil || len(recs) != 0 {
		t.Fatalf("rejected leagues left %d records (err %v)", len(recs), err)
	}
}

// TestJobsStateFilter exercises GET /v1/jobs?state=...: done jobs appear
// under state=done, not under state=running, and an unknown state is a
// 400 instead of a silently empty list.
func TestJobsStateFilter(t *testing.T) {
	srv, _ := newTestServer(t)
	info := finishedSmokeJob(t, srv)

	listIDs := func(query string) []string {
		t.Helper()
		code, body := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs"+query, "")
		if code != http.StatusOK {
			t.Fatalf("list %q: %d %s", query, code, body)
		}
		var page struct {
			Jobs []JobInfo `json:"jobs"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		ids := make([]string, 0, len(page.Jobs))
		for _, j := range page.Jobs {
			ids = append(ids, j.ID)
		}
		return ids
	}

	if ids := listIDs(""); len(ids) != 1 || ids[0] != info.ID {
		t.Fatalf("unfiltered list = %v", ids)
	}
	if ids := listIDs("?state=done"); len(ids) != 1 || ids[0] != info.ID {
		t.Fatalf("state=done list = %v", ids)
	}
	for _, state := range []string{"queued", "running", "failed", "cancelled"} {
		if ids := listIDs("?state=" + state); len(ids) != 0 {
			t.Fatalf("state=%s list = %v, want empty", state, ids)
		}
	}
	code, body := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs?state=bogus", "")
	if code != http.StatusBadRequest {
		t.Fatalf("state=bogus: %d %s, want 400", code, body)
	}
	if !strings.Contains(string(body), "unknown state") {
		t.Fatalf("400 body does not enumerate valid states: %s", body)
	}
}

// TestLeagueSurvivesRestartBitIdentical is the durability half of the
// league determinism contract, driven through the real daemon plumbing:
// harvest and play a league on a file store + file archive, remember the
// table, tear everything down, recover a fresh server over the same
// directories, and require (a) the recovered record serves the identical
// table, (b) verify replays it to a "match" verdict, and (c) a freshly
// submitted identical league spec reproduces the table byte for byte.
func TestLeagueSurvivesRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	store1, err := jobstore.OpenFile(dir + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	arch1, err := league.OpenDir(dir + "/champions")
	if err != nil {
		t.Fatal(err)
	}
	base1, _ := newLeagueServer(t, store1, arch1)
	harvestChampions(t, base1)

	const leagueSpec = `{"baselines": true, "per_side": 2, "matches_per_pair": 1, "rounds": 10, "seed": 7}`
	code, body := doJSON(t, http.MethodPost, base1+"/v1/league", leagueSpec)
	if code != http.StatusAccepted {
		t.Fatalf("league submit: %d %s", code, body)
	}
	var handle JobInfo
	if err := json.Unmarshal(body, &handle); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, base1, handle.ID)
	if final.State != string(adhocga.JobDone) || final.League == nil {
		t.Fatalf("league ended %q, table %v", final.State, final.League != nil)
	}
	want, err := json.Marshal(final.League)
	if err != nil {
		t.Fatal(err)
	}
	waitRecord(t, store1, handle.ID)
	store1.Close()
	arch1.Close()

	// The "restarted daemon": fresh store, archive, session, and server
	// over the same directories.
	store2, err := jobstore.OpenFile(dir + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	arch2, err := league.OpenDir(dir + "/champions")
	if err != nil {
		t.Fatal(err)
	}
	if arch2.Len() != 4 {
		t.Fatalf("archive reopened with %d champions, want 4", arch2.Len())
	}
	base2, s2 := newLeagueServer(t, store2, arch2)
	if _, _, err := s2.Recover(t.Context()); err != nil {
		t.Fatal(err)
	}

	code, body = doJSON(t, http.MethodGet, base2+"/v1/jobs/"+handle.ID, "")
	if code != http.StatusOK {
		t.Fatalf("recovered league job: %d %s", code, body)
	}
	var recovered JobInfo
	if err := json.Unmarshal(body, &recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.League == nil {
		t.Fatalf("recovered league job lost its table: %s", body)
	}
	got, err := json.Marshal(recovered.League)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("league table changed across restart:\nbefore %s\nafter  %s", want, got)
	}

	// Verify replays the league from its recorded spec in a sandbox; a
	// "match" verdict certifies the stored table is reproducible.
	code, body = doJSON(t, http.MethodPost, base2+"/v1/jobs/"+handle.ID+"/verify", "")
	if code != http.StatusOK {
		t.Fatalf("verify: %d %s", code, body)
	}
	var report VerifyReport
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	if report.Verdict != "match" {
		t.Fatalf("verify verdict %q: %s", report.Verdict, body)
	}

	// And a brand-new league under the same spec reproduces the table.
	code, body = doJSON(t, http.MethodPost, base2+"/v1/league", leagueSpec)
	if code != http.StatusAccepted {
		t.Fatalf("fresh league submit: %d %s", code, body)
	}
	var fresh JobInfo
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	freshFinal := waitState(t, base2, fresh.ID)
	if freshFinal.State != string(adhocga.JobDone) || freshFinal.League == nil {
		t.Fatalf("fresh league ended %q (error %q)", freshFinal.State, freshFinal.Error)
	}
	rerun, err := json.Marshal(freshFinal.League)
	if err != nil {
		t.Fatal(err)
	}
	if string(rerun) != string(want) {
		t.Fatalf("fresh league diverged from pre-restart table:\nbefore %s\nafter  %s", want, rerun)
	}
}

// TestUnknownKeysRejected: the submit wrapper and the league body are
// decoded strictly, like the scenario specs inside them. A misspelled or
// unknown key is a 400 naming it and leaves no record behind; the same
// documents spelled right are accepted.
func TestUnknownKeysRejected(t *testing.T) {
	store := jobstore.NewMem()
	base, _ := newLeagueServer(t, store, league.NewMemArchive())
	const seats = `"baselines": true, "per_side": 2, "matches_per_pair": 1, "rounds": 10, "seed": 7`
	for _, tc := range []struct {
		name, path, body string
		wantCode         int
		wantField        string
	}{
		{"submit typo", "/v1/jobs", fmt.Sprintf(`{"scenarios": %s, "parallelsim": 1}`, smokeSpec), http.StatusBadRequest, "parallelsim"},
		{"submit extra key", "/v1/jobs", fmt.Sprintf(`{"scenarios": %s, "scale": "smoke", "priority": 3}`, smokeSpec), http.StatusBadRequest, "priority"},
		{"submit spelled right", "/v1/jobs", fmt.Sprintf(`{"scenarios": %s, "scale": "smoke", "parallelism": 1}`, smokeSpec), http.StatusAccepted, ""},
		{"league typo", "/v1/league", `{"baselines": true, "per_sid": 3}`, http.StatusBadRequest, "per_sid"},
		{"league extra key", "/v1/league", `{` + seats + `, "mode": "LP"}`, http.StatusBadRequest, "mode"},
		{"league spelled right", "/v1/league", `{` + seats + `}`, http.StatusAccepted, ""},
	} {
		before, err := store.List()
		if err != nil {
			t.Fatal(err)
		}
		code, body := doJSON(t, http.MethodPost, base+tc.path, tc.body)
		if code != tc.wantCode {
			t.Errorf("%s: %d %s, want %d", tc.name, code, body, tc.wantCode)
			continue
		}
		if tc.wantCode != http.StatusBadRequest {
			continue
		}
		if want := `unknown field \"` + tc.wantField + `\"`; !strings.Contains(string(body), want) {
			t.Errorf("%s: body %s does not name the field (%s)", tc.name, body, want)
		}
		if after, _ := store.List(); len(after) != len(before) {
			t.Errorf("%s: rejected request left a record (%d → %d)", tc.name, len(before), len(after))
		}
	}
}

// TestUnrunnableRequestsRejected: a request the job would only fail —
// league knobs that break the league's own checks once its defaults
// apply, an unknown path mode, a negative worker count — is a 400 naming
// the problem, and leaves no record behind.
func TestUnrunnableRequestsRejected(t *testing.T) {
	store := jobstore.NewMem()
	base, _ := newLeagueServer(t, store, league.NewMemArchive())
	for _, tc := range []struct {
		name, path, body, want string
	}{
		{"league matches", "/v1/league", `{"baselines": true, "matches_per_pair": -2}`, "matches per pair"},
		{"league path mode", "/v1/league", `{"baselines": true, "path_mode": "XX"}`, "unknown path mode"},
		{"league per side", "/v1/league", `{"baselines": true, "per_side": -1}`, "per-side"},
		{"league rounds", "/v1/league", `{"baselines": true, "rounds": -7}`, "rounds"},
		{"league csn", "/v1/league", `{"baselines": true, "csn": -1}`, "CSN"},
		{"league parallelism", "/v1/league", `{"baselines": true, "parallelism": -1}`, "parallelism"},
		{"submit parallelism", "/v1/jobs", fmt.Sprintf(`{"scenarios": %s, "parallelism": -3}`, smokeSpec), "parallelism"},
	} {
		before, err := store.List()
		if err != nil {
			t.Fatal(err)
		}
		code, body := doJSON(t, http.MethodPost, base+tc.path, tc.body)
		if code != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: %d %s, want 400 naming %q", tc.name, code, body, tc.want)
		}
		if after, _ := store.List(); len(after) != len(before) {
			t.Errorf("%s: rejected request left a record (%d → %d)", tc.name, len(before), len(after))
		}
	}
}
