"""The WSRF.NET programming model: fields, wrapper load/save, EPR resolution."""

import pytest

from repro.soap import SoapFault
from repro.wsrf import RESOURCE_ID, ResourceField, ResourceHome, aggregate_port_types
from repro.wsrf.resource import ResourceUnknownError
from repro.xmllib import element

from tests.wsrf.conftest import BUMP, NS, CounterService, create_counter


class TestResourceField:
    def test_type_coercion_on_set(self):
        class Holder:
            x = ResourceField(int, 5)

        holder = Holder()
        assert holder.x == 5
        holder.x = "7"
        assert holder.x == 7

    def test_bool_roundtrip(self):
        field = ResourceField(bool, False)
        assert field.to_text(True) == "true"
        assert field.from_text("true") is True
        assert field.from_text("false") is False

    def test_float_roundtrip_precision(self):
        field = ResourceField(float, 0.0)
        value = 1.000000000000004
        assert field.from_text(field.to_text(value)) == value

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            ResourceField(list)

    def test_class_access_returns_descriptor(self):
        assert isinstance(CounterService.cv, ResourceField)


class TestWrapper:
    def test_each_resource_has_its_own_state(self, rig):
        _, service, client = rig
        epr_a = create_counter(service, client, initial=10)
        epr_b = create_counter(service, client, initial=20)
        client.invoke(epr_a, BUMP, element(f"{{{NS}}}Bump"))
        response = client.invoke(epr_b, BUMP, element(f"{{{NS}}}Bump"))
        assert response.text() == "21"
        response = client.invoke(epr_a, BUMP, element(f"{{{NS}}}Bump"))
        assert response.text() == "12"

    def test_state_persists_across_invocations(self, rig):
        _, service, client = rig
        epr = create_counter(service, client)
        for expected in ("1", "2", "3"):
            response = client.invoke(epr, BUMP, element(f"{{{NS}}}Bump"))
            assert response.text() == expected

    def test_unknown_resource_faults(self, rig):
        _, service, client = rig
        bad_epr = service.resource_epr("counters-99999999")
        with pytest.raises(SoapFault, match="unknown"):
            client.invoke(bad_epr, BUMP, element(f"{{{NS}}}Bump"))

    def test_operation_without_resource_faults_when_required(self, rig):
        _, service, client = rig
        with pytest.raises(SoapFault, match="requires a WS-Resource"):
            client.invoke(
                service.epr(),
                "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ResourceProperties-1.2-draft-01.xsd/GetResourceProperty",
                element("{urn:x}GetResourceProperty", "Value"),
            )

    def test_create_resource_rejects_unknown_field(self, rig):
        _, service, _ = rig
        with pytest.raises(ValueError, match="unknown resource field"):
            service.create_resource(nope=1)

    def test_create_resource_defaults(self, rig):
        deployment, service, client = rig
        epr = service.create_resource()
        key = epr.property(RESOURCE_ID)
        doc = service.home.load(key)
        assert "unnamed" in doc.text()


class TestResourceHome:
    def test_load_unknown_raises(self, rig):
        _, service, _ = rig
        with pytest.raises(ResourceUnknownError):
            service.home.load("ghost")

    def test_save_unknown_raises(self, rig):
        _, service, _ = rig
        with pytest.raises(ResourceUnknownError):
            service.home.save("ghost", element("x"))

    def test_destroy_unknown_raises(self, rig):
        _, service, _ = rig
        with pytest.raises(ResourceUnknownError):
            service.home.destroy("ghost")

    def test_set_termination_unknown_raises(self, rig):
        _, service, _ = rig
        with pytest.raises(ResourceUnknownError):
            service.home.set_termination_time("ghost", 100.0)


class TestAggregatePortTypes:
    def test_composed_class_gains_operations(self, rig):
        from repro.wsrf import ResourceLifetimeMixin, WsResourceService

        class Plain(WsResourceService):
            service_name = "Plain"

        Composed = aggregate_port_types("ComposedService", Plain, ResourceLifetimeMixin)
        deployment, _, _ = rig
        instance = Composed(ResourceHome("plain", deployment.network))
        from repro.wsrf.lifetime import actions

        assert actions.DESTROY in instance.operations()

    def test_rp_document_lists_properties_sorted(self, rig):
        _, service, client = rig
        epr = create_counter(service, client, initial=4)
        # Simulate a dispatch context by loading fields directly.
        key = epr.property(RESOURCE_ID)
        service._load_fields(service.home.load(key))
        service._current_key = key
        doc = service.rp_document()
        locals_ = [c.tag.local for c in doc.element_children()]
        assert "Value" in locals_ and "DoubleValue" in locals_
        value = doc.find(f"{{{NS}}}Value")
        double = doc.find(f"{{{NS}}}DoubleValue")
        assert int(double.text()) == 2 * int(value.text())
        service._current_key = None


class TestDirectCreateExposure:
    """§3.1: the two options for exposing creation."""

    def build(self, rig):
        from repro.wsrf import ResourceHome
        from repro.wsrf.create import DirectCreateMixin
        from tests.helpers import server_container

        deployment, _, client = rig

        class DirectCounter(DirectCreateMixin, CounterService):
            service_name = "DirectCounter"

        container = server_container(deployment, host="direct-host")
        service = DirectCounter(ResourceHome("direct", deployment.network))
        container.add_service(service)
        return service, client

    def test_direct_create_with_field_values(self, rig):
        from repro.addressing import EndpointReference
        from repro.wsrf.create import WSRFNET_NS, actions

        service, client = self.build(rig)
        response = client.invoke(
            service.epr(),
            actions.CREATE,
            element(f"{{{WSRFNET_NS}}}Create", element("cv", "9"), element("label", "direct")),
        )
        epr = EndpointReference.from_xml(next(response.element_children()))
        key = epr.property(RESOURCE_ID)
        doc = service.home.load(key)
        assert "9" in doc.text() and "direct" in doc.text()

    def test_direct_create_defaults(self, rig):
        from repro.addressing import EndpointReference
        from repro.wsrf.create import WSRFNET_NS, actions

        service, client = self.build(rig)
        response = client.invoke(
            service.epr(), actions.CREATE, element(f"{{{WSRFNET_NS}}}Create")
        )
        epr = EndpointReference.from_xml(next(response.element_children()))
        assert service.home.contains(epr.property(RESOURCE_ID))

    def test_unknown_field_faults(self, rig):
        from repro.soap import SoapFault
        from repro.wsrf.create import WSRFNET_NS, actions

        service, client = self.build(rig)
        with pytest.raises(SoapFault, match="no resource field"):
            client.invoke(
                service.epr(),
                actions.CREATE,
                element(f"{{{WSRFNET_NS}}}Create", element("bogus", "1")),
            )
