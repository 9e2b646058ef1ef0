package shard

import (
	"testing"

	"webtextie/internal/crawler"
)

func TestShardResumeValidation(t *testing.T) {
	e := newEnv(t, 20, nil)
	cfg := Config{Crawl: crawler.DefaultConfig(), Shards: 2}
	r, err := New(cfg, e.newWeb, e.clf)
	if err != nil {
		t.Fatal(err)
	}
	r.Seed(e.seeds)
	r.Round()
	cp, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Shards = 3
	if _, err := Resume(bad, e.newWeb, e.clf, cp); err == nil {
		t.Error("resharding 2 -> 3 on resume accepted; want error")
	}
	selfTrain := cfg
	selfTrain.Crawl.SelfTraining = true
	if _, err := Resume(selfTrain, e.newWeb, e.clf, cp); err == nil {
		t.Error("SelfTraining accepted on resume; want error")
	}
	truncated := *cp
	truncated.Crawlers = cp.Crawlers[:1]
	if _, err := Resume(cfg, e.newWeb, e.clf, &truncated); err == nil {
		t.Error("manifest with missing shard states accepted; want error")
	}
	if _, err := UnmarshalCheckpoint([]byte("{not json")); err == nil {
		t.Error("corrupt manifest accepted; want error")
	}
}
