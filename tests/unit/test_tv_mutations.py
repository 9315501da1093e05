"""The mutation-kill harness: a validator that accepts everything is
worse than none, so CI requires every seeded miscompile to be caught."""

from repro.analysis.tv.mutate import (
    BACK_EDGE_MUTATIONS,
    REGISTER_LOOP_MUTATIONS,
    SOURCE_MUTATIONS,
    main as mutate_main,
    run_harness,
)


class TestMutationKill:
    def test_all_twenty_seven_mutations_are_killed(self):
        baseline, outcomes = run_harness()
        assert baseline is not None and baseline.ok, \
            "fixture block must validate before mutation"
        assert len(outcomes) == 27
        missed = [o.name for o in outcomes if not o.killed]
        assert not missed, f"validator missed mutations: {missed}"

    def test_mutation_set_covers_the_advertised_bug_classes(self):
        names = {name for name, _desc, _fn in SOURCE_MUTATIONS}
        for family in ("drop-flags-commit", "zf-wrong-bit",
                       "instret-off-by-one", "drop-smc-check",
                       "drop-irq-check", "negate-branch",
                       "drop-exit-flags", "drop-pacing-flags"):
            assert family in names
        assert {"drop-loop-head-flags", "drop-loop-head-instret",
                "drop-loop-head-cycles", "drop-back-edge-flags"} \
            <= {name for name, _desc, _fn in BACK_EDGE_MUTATIONS}
        assert {"trip-bound-off-by-one", "trip-bound-cycle-divisor",
                "trip-bound-drops-cycles", "terminator-exit-keeps-register",
                "pacing-exit-keeps-register", "exit-accounting-multiplier"} \
            == {name for name, _desc, _fn in REGISTER_LOOP_MUTATIONS}

    def test_cli_entry_point_exits_zero(self, capsys):
        assert mutate_main([]) == 0
        out = capsys.readouterr().out
        assert "27/27 mutations killed" in out
