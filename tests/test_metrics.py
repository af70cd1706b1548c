"""Tests for metric inference: catalog, design, operational, health, dataset."""

import numpy as np
import pytest

from repro.metrics.catalog import (
    DESIGN,
    METRICS,
    OPERATIONAL,
    display_name,
    get_metric,
    metric_names,
)
from repro.metrics.dataset import MetricDataset
from repro.metrics.design import (
    config_metrics,
    extract_device_features,
    inventory_metrics,
)
from repro.metrics.health import modality_from_login, monthly_ticket_count
from repro.metrics.operational import operational_metrics
from repro.metrics.events import group_change_events
from repro.types import ChangeModality, ChangeRecord
from repro.util.stats import pearson_correlation


class TestCatalog:
    def test_all_table1_lines_covered(self):
        lines = {m.table1_line for m in METRICS}
        assert lines >= {"D1", "D2", "D3", "D4", "D5", "D6",
                         "O1", "O2", "O3", "O4"}

    def test_both_categories_present(self):
        assert len(metric_names(DESIGN)) >= 10
        assert len(metric_names(OPERATIONAL)) >= 10
        assert (len(metric_names(DESIGN)) + len(metric_names(OPERATIONAL))
                == len(metric_names()))

    def test_get_metric(self):
        assert get_metric("n_devices").category == DESIGN
        with pytest.raises(KeyError):
            get_metric("nonsense")

    def test_display_name(self):
        assert display_name("n_devices") == "n_devices (D)"
        assert display_name("n_change_events") == "n_change_events (O)"
        assert display_name("mystery") == "mystery"


class TestInventoryMetrics:
    def test_values(self, tiny_corpus):
        network_id = tiny_corpus.inventory.network_ids[0]
        metrics = inventory_metrics(tiny_corpus.inventory, network_id)
        truth = tiny_corpus.network_truth[network_id]
        assert metrics["n_devices"] == truth.n_devices
        assert metrics["n_models"] == truth.n_models
        assert metrics["n_roles"] == truth.n_roles
        assert 0.0 <= metrics["hardware_entropy"] <= 1.0

    def test_empty_network_rejected(self, tiny_corpus):
        from repro.inventory.store import InventoryStore
        from repro.types import NetworkRecord
        store = InventoryStore()
        store.add_network(NetworkRecord("empty"))
        with pytest.raises(ValueError):
            inventory_metrics(store, "empty")


class TestConfigMetrics:
    def test_empty_is_zero(self):
        metrics = config_metrics({})
        assert all(v == 0.0 for v in metrics.values())

    def test_features_from_corpus(self, tiny_corpus):
        from repro.confparse.registry import parse_config
        device_id = next(iter(tiny_corpus.snapshots))
        snap = tiny_corpus.snapshots[device_id][0]
        config = parse_config(snap.config_text,
                              tiny_corpus.dialect_of(device_id))
        features = extract_device_features(config)
        assert features.intra_refs >= 0
        assert isinstance(features.vlan_ids, frozenset)


def _record(device, ts, types, modality=ChangeModality.MANUAL):
    return ChangeRecord(device_id=device, network_id="n", timestamp=ts,
                        modality=modality, stanza_types=tuple(types))


class TestOperationalMetrics:
    def test_zero_month(self):
        metrics = operational_metrics([], [], 5, frozenset())
        assert metrics["n_config_changes"] == 0
        assert metrics["frac_events_acl"] == 0.0

    def test_counts(self):
        changes = [
            _record("d1", 0, ("interface",)),
            _record("d2", 2, ("acl", "interface"), ChangeModality.AUTOMATED),
            _record("d1", 500, ("pool",)),
        ]
        events = group_change_events(changes)
        metrics = operational_metrics(changes, events, 10,
                                      mbox_device_ids=frozenset({"d9"}))
        assert metrics["n_config_changes"] == 3
        assert metrics["n_devices_changed"] == 2
        assert metrics["frac_devices_changed"] == pytest.approx(0.2)
        assert metrics["frac_changes_automated"] == pytest.approx(1 / 3)
        assert metrics["n_change_types"] == 3
        assert metrics["n_change_events"] == 2
        assert metrics["frac_events_interface"] == pytest.approx(0.5)
        # pool stanza type marks the event as middlebox-touching
        assert metrics["frac_events_mbox"] == pytest.approx(0.5)

    def test_mbox_by_device(self):
        changes = [_record("mb1", 0, ("interface",))]
        events = group_change_events(changes)
        metrics = operational_metrics(changes, events, 3,
                                      mbox_device_ids=frozenset({"mb1"}))
        assert metrics["frac_events_mbox"] == 1.0

    def test_invalid_device_count(self):
        with pytest.raises(ValueError):
            operational_metrics([], [], 0, frozenset())


class TestHealthMetric:
    def test_modality_inference(self):
        assert modality_from_login("svc-netbot")
        assert not modality_from_login("ops07")

    def test_monthly_count_excludes_maintenance(self, tiny_corpus):
        network_id = tiny_corpus.inventory.network_ids[0]
        month = tiny_corpus.epoch
        count = monthly_ticket_count(tiny_corpus.tickets, network_id, month,
                                     tiny_corpus.epoch)
        truth = tiny_corpus.month_truth[(network_id, 0)]
        assert count == truth.tickets


class TestDataset:
    def test_shape(self, tiny_dataset, tiny_corpus):
        expected = (tiny_corpus.inventory.num_networks * tiny_corpus.n_months)
        assert tiny_dataset.n_cases == expected
        assert tiny_dataset.values.shape == (expected, len(metric_names()))

    def test_column_lookup(self, tiny_dataset):
        devices = tiny_dataset.column("n_devices")
        assert devices.min() >= 2
        with pytest.raises(KeyError):
            tiny_dataset.column("bogus")

    def test_inference_recovers_truth(self, tiny_dataset, tiny_corpus):
        """The headline pipeline test: inferred metrics track ground truth."""
        pairs = {
            "n_change_events": "n_change_events",
            "n_config_changes": "n_device_changes",
            "n_devices_changed": "n_devices_changed",
        }
        lookup = {
            (network, month): i for i, (network, month) in enumerate(
                zip(tiny_dataset.case_networks,
                    tiny_dataset.case_month_indices)
            )
        }
        for metric, truth_field in pairs.items():
            inferred, actual = [], []
            for key, truth in tiny_corpus.month_truth.items():
                inferred.append(tiny_dataset.column(metric)[lookup[key]])
                actual.append(getattr(truth, truth_field))
            assert pearson_correlation(inferred, actual) > 0.9, metric

    def test_design_metrics_match_inventory_truth(self, tiny_dataset,
                                                  tiny_corpus):
        lookup = dict(zip(
            zip(tiny_dataset.case_networks, tiny_dataset.case_month_indices),
            range(tiny_dataset.n_cases),
        ))
        for network_id, truth in tiny_corpus.network_truth.items():
            idx = lookup[(network_id, 0)]
            assert tiny_dataset.column("n_devices")[idx] == truth.n_devices
            assert tiny_dataset.column("n_models")[idx] == truth.n_models

    def test_tickets_column_nonnegative(self, tiny_dataset):
        assert tiny_dataset.tickets.min() >= 0

    def test_case_keys(self, tiny_dataset, tiny_corpus):
        keys = tiny_dataset.case_keys()
        assert len(keys) == tiny_dataset.n_cases
        assert keys[0].month == tiny_corpus.epoch

    def test_restrict_months(self, tiny_dataset):
        subset = tiny_dataset.restrict_months({0, 1})
        assert set(subset.case_month_indices) == {0, 1}
        assert subset.values.shape[1] == tiny_dataset.values.shape[1]

    def test_save_load(self, tiny_dataset, tmp_path):
        tiny_dataset.save(tmp_path / "ds.mpstore")
        loaded = MetricDataset.load(tmp_path / "ds.mpstore")
        assert loaded.names == tiny_dataset.names
        assert np.array_equal(loaded.values, tiny_dataset.values)
        assert np.array_equal(loaded.tickets, tiny_dataset.tickets)
        assert loaded.epoch == tiny_dataset.epoch

    def test_shape_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            MetricDataset(
                names=tiny_dataset.names,
                case_networks=tiny_dataset.case_networks,
                case_month_indices=tiny_dataset.case_month_indices,
                values=tiny_dataset.values[:, :3],
                tickets=tiny_dataset.tickets,
                epoch=tiny_dataset.epoch,
            )

    def test_vendor_asymmetry_visible_in_types(self, tiny_changes):
        """VLAN-membership churn surfaces as interface changes on IOS and
        vlan changes on JunOS — both types must appear in the corpus."""
        seen = set()
        for records in tiny_changes.values():
            for record in records:
                seen.update(record.stanza_types)
        assert "interface" in seen
        assert "vlan" in seen
