from jwprop import bench


def test_every_record_runs_the_alternation_budget():
    # bench() sets a tolerance no run can reach, so none stops early.
    records = bench(["lbp", "lbp-jwp"], [2000, 3000], seeds=[0], alternations=3)
    assert [r.method for r in records] == ["lbp", "lbp-jwp"] * 2
    assert all(r.alternations == 3 and r.edges > 0 for r in records)
