"""Per-checker tests: each rule fires on its bad fixture and stays quiet
on the clean one."""

from pathlib import Path

from repro.analysis.engine import analyze_file

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(fixture: str, rule: str):
    return [
        f for f in analyze_file(str(FIXTURES / fixture)) if f.rule == rule
    ]


class TestRpo01TransferQuartet:
    def test_partial_service_flagged(self):
        findings = findings_for("rpo01_bad.py", "RPO01")
        quartet = [f for f in findings if f.symbol == "HalfTransferService"]
        assert len(quartet) == 1
        assert "DELETE" in quartet[0].message and "PUT" in quartet[0].message

    def test_hardcoded_action_uris_flagged(self):
        findings = findings_for("rpo01_bad.py", "RPO01")
        table = [f for f in findings if f.symbol.startswith("partial_actions.")]
        assert {f.symbol.split(".")[1] for f in table} == {
            "CREATE", "GET", "PUT", "DELETE",
        }

    def test_clean_passes(self):
        assert findings_for("clean.py", "RPO01") == []


class TestRpo02EventingQuartet:
    def test_stranding_source_flagged(self):
        findings = findings_for("rpo02_bad.py", "RPO02")
        assert any(f.symbol == "StrandingEventSource" for f in findings)

    def test_partial_manager_flagged(self):
        findings = findings_for("rpo02_bad.py", "RPO02")
        partial = [f for f in findings if f.symbol == "ForgetfulManager"]
        assert len(partial) == 1
        assert "GET_STATUS" in partial[0].message

    def test_clean_passes(self):
        assert findings_for("clean.py", "RPO02") == []


class TestRpo03FaultDiscipline:
    def test_bare_and_soap_raises_flagged(self):
        findings = findings_for("wsrf_bad_faults.py", "RPO03")
        assert {f.symbol for f in findings} == {
            "LeakyResourceService.poke",
            "LeakyResourceService.prod",
        }

    def test_scope_is_wsrf_stack_only(self):
        # Same raise shapes outside wsrf/wsn paths are not this rule's business.
        assert findings_for("rpo06_bad.py", "RPO03") == []


class TestRpo04NamespaceHygiene:
    def test_all_three_shapes_flagged(self):
        findings = findings_for("rpo04_bad.py", "RPO04")
        assert len(findings) == 3
        messages = " / ".join(f.message for f in findings)
        assert "Clark notation" in messages
        assert "module/class constant" in messages

    def test_clean_passes(self):
        assert findings_for("clean.py", "RPO04") == []


class TestRpo05SimCost:
    def test_all_three_shapes_flagged(self):
        findings = findings_for("rpo05_bad.py", "RPO05")
        by_symbol = {f.symbol: f for f in findings}
        assert set(by_symbol) == {
            "send_for_free", "persist_for_free", "charge_invisibly",
        }
        assert all(f.severity == "warning" for f in findings)

    def test_nested_def_work_is_reported_once(self):
        # The WireMessage is built inside ``inner``: ``outer`` only calls it.
        findings = findings_for("rpo05_nested.py", "RPO05")
        assert [(f.line, f.col, f.symbol) for f in findings] == [(8, 15, "inner")]

    def test_clean_passes(self):
        assert findings_for("clean.py", "RPO05") == []


class TestRpo06HandlerState:
    """RPO06's planted handler fixture; RPO09 flags every line since the fold."""

    def test_global_subscript_and_mutator_flagged(self):
        findings = findings_for("rpo06_bad.py", "RPO09")
        assert {f.line for f in findings} == {13, 15, 16}
        messages = " / ".join(f.message for f in findings)
        assert "'COUNTER' is rebound through `global`" in messages
        assert "'SUBSCRIBERS'" in messages
        assert "'REGISTRY'" in messages

    def test_clean_passes(self):
        assert findings_for("clean.py", "RPO09") == []


class TestRpo07WallClock:
    """RPO07's planted fixture; RPO10 flags every sleep since the fold."""

    def test_module_and_aliased_sleeps_flagged(self):
        findings = findings_for("rpo07_bad.py", "RPO10")
        assert {f.line for f in findings} == {8, 14}
        assert {f.symbol for f in findings} == {
            "backoff_for_real", "Retransmitter.retry",
        }
        # Neither sleep is on a ledger path or handler-reachable.
        assert all(f.severity == "warning" for f in findings)
        assert all("clock.charge" in f.message for f in findings)

    def test_charged_backoff_not_flagged(self):
        findings = findings_for("rpo07_bad.py", "RPO10")
        assert not any(f.symbol == "wait_virtually" for f in findings)

    def test_clean_passes(self):
        assert findings_for("clean.py", "RPO10") == []


class TestRpo09HostIsolation:
    def test_runtime_mutated_module_mutables_flagged(self):
        findings = findings_for("rpo09_bad.py", "RPO09")
        by_symbol = {f.symbol for f in findings}
        assert "record_lease" in by_symbol
        assert "flush_pending" in by_symbol

    def test_class_level_mutable_defaults_flagged(self):
        findings = findings_for("rpo09_bad.py", "RPO09")
        assert "SubscriptionBook.subscribers" in {f.symbol for f in findings}
        assert "SubscriptionBook.index" in {f.symbol for f in findings}

    def test_import_time_mutation_not_flagged(self):
        # IMPORT_TIME is populated at module scope — pre-host, exempt.
        findings = findings_for("rpo09_bad.py", "RPO09")
        assert not any("IMPORT_TIME" in f.message for f in findings)

    def test_screaming_case_class_constant_not_flagged(self):
        findings = findings_for("rpo09_bad.py", "RPO09")
        assert not any(f.symbol.endswith(".ROUTES") for f in findings)

    def test_module_iterator_advanced_by_next_flagged(self):
        # One runtime next() is flagged; the import-time one is not.
        findings = findings_for("rpo09_bad.py", "RPO09")
        shared_ids = [f for f in findings if "'_IDS'" in f.message]
        assert [(f.line, f.symbol) for f in shared_ids] == [(40, "next_message_id")]
        assert "advanced by next()" in shared_ids[0].message

    def test_clean_passes(self):
        assert findings_for("clean.py", "RPO09") == []


class TestRpo10Determinism:
    def test_entropy_sources_flagged(self):
        findings = findings_for("rpo10_bad.py", "RPO10")
        messages = " | ".join(f.message for f in findings)
        assert "time.time()" in messages
        assert "datetime.now()" in messages
        assert "random.random()" in messages
        assert "random.Random() with no seed" in messages
        assert "os.urandom()" in messages
        assert "uuid.uuid4()" in messages
        assert "id()" in messages
        assert "iteration order of a set" in messages
        assert "sorting by id()" in messages

    def test_seeded_random_not_flagged(self):
        findings = findings_for("rpo10_bad.py", "RPO10")
        assert not any(f.symbol == "seeded_ok" for f in findings)

    def test_handler_reachable_entropy_is_error(self):
        findings = findings_for("rpo10_bad.py", "RPO10")
        severities = {f.symbol: f.severity for f in findings}
        assert severities["TimestampService._now"] == "error"
        assert severities["stamp"] == "warning"

    def test_common_method_name_does_not_fake_reachability(self):
        # The handler calls Cert().check; the module-level check() that
        # reads the wall clock is reachable from no handler.
        findings = findings_for("rpo10_method_name.py", "RPO10")
        assert [(f.symbol, f.severity) for f in findings] == [("check", "warning")]

    def test_clean_passes(self):
        assert findings_for("clean.py", "RPO10") == []


class TestRpo11CostEscape:
    """RPO11's planted wrapper fixture; RPO05 flags every line since the fold."""

    def test_wrappers_flagged(self):
        findings = findings_for("rpo11_bad.py", "RPO05")
        wrappers = {
            (f.line, f.symbol) for f in findings if "charges the clock directly" in f.message
        }
        assert wrappers == {(6, "bump"), (10, "advance_quietly")}

    def test_transitive_callers_flagged(self):
        findings = findings_for("rpo11_bad.py", "RPO05")
        launderers = {(f.line, f.symbol) for f in findings if "reaches" in f.message}
        assert launderers == {(13, "handle_request"), (17, "outer")}
        assert {f.line for f in findings} == {6, 10, 13, 17}

    def test_network_charge_not_flagged(self):
        findings = findings_for("rpo11_bad.py", "RPO05")
        assert not any(f.symbol == "charge_properly" for f in findings)

    def test_clean_passes(self):
        assert findings_for("clean.py", "RPO05") == []


class TestRpo12Reentrancy:
    def test_mutation_after_fanout_flagged(self):
        findings = findings_for("rpo12_bad.py", "RPO12")
        assert {f.symbol for f in findings} == {
            "ChattyNotifier.drop",
            "ChattyNotifier.renumber",
            "ChattyNotifier.stream",
        }

    def test_settle_before_fanout_not_flagged(self):
        findings = findings_for("rpo12_bad.py", "RPO12")
        assert not any(f.symbol == "ChattyNotifier.settle_first" for f in findings)

    def test_contextmanager_exempt(self):
        findings = findings_for("rpo12_bad.py", "RPO12")
        assert not any(f.symbol == "scope" for f in findings)

    def test_clean_passes(self):
        assert findings_for("clean.py", "RPO12") == []


class TestRpo13StoreDiscipline:
    def test_internal_pokes_flagged(self):
        findings = findings_for("rpo13_bad.py", "RPO13")
        assert {f.symbol for f in findings} == {
            "poison_cache", "drop_entry", "hand_edit_index",
            "bypass_collection", "forget", "attach_raw",
        }

    def test_collection_api_not_flagged(self):
        findings = findings_for("rpo13_bad.py", "RPO13")
        assert not any(f.symbol == "proper" for f in findings)

    def test_owning_layer_is_exempt(self):
        import repro.xmldb.cache as cache_mod
        import repro.xmldb.index as index_mod

        for mod in (cache_mod, index_mod):
            assert [f for f in analyze_file(mod.__file__) if f.rule == "RPO13"] == []

    def test_clean_passes(self):
        assert findings_for("clean.py", "RPO13") == []


class TestRpo15LayerDiscipline:
    def test_every_banned_import_shape_flagged(self):
        findings = findings_for("rpo15_bad_logic.py", "RPO15")
        # import repro.soap / from repro.container import / from
        # repro.pipeline.filters import / from repro import container.
        assert len(findings) == 4
        roots = " | ".join(f.message for f in findings)
        assert "repro.soap" in roots
        assert "repro.container" in roots
        assert "repro.pipeline" in roots
        assert all(f.severity == "error" for f in findings)

    def test_message_points_at_the_router_seam(self):
        findings = findings_for("rpo15_bad_logic.py", "RPO15")
        assert all("router layer" in f.message for f in findings)

    def test_real_inner_layers_are_clean(self):
        import repro.apps.datagrid.db as dg_db
        import repro.apps.datagrid.logic as dg_logic
        import repro.apps.giab.db as giab_db
        import repro.apps.giab.logic as giab_logic
        import repro.apps.layers.db as layers_db
        import repro.apps.layers.logic as layers_logic

        for mod in (
            dg_db, dg_logic, giab_db, giab_logic, layers_db, layers_logic,
        ):
            assert [f for f in analyze_file(mod.__file__) if f.rule == "RPO15"] == []

    def test_routers_stay_out_of_scope(self):
        # Routers are *supposed* to touch the wire: the rule keys on the
        # logic.py/db.py layer convention, not on the package.
        import repro.apps.giab.wsrf.data as router_mod

        assert [f for f in analyze_file(router_mod.__file__) if f.rule == "RPO15"] == []

    def test_clean_passes(self):
        assert findings_for("clean.py", "RPO15") == []
