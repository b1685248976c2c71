"""The WSRF DataService: directory resources on a node's filesystem (§4.2.1).

"WS-Resources are directories.  Clients create new directory resources
(although do not name them), upload data to them, and pass the EPRs ... to
the ExecService."  The file list is a *dynamic* resource property computed
by examining the directory; Destroy removes the directory and its contents.

This module is a *router*: wire parsing, the directory-as-WS-Resource
idiom and WSRF fault phrasing over the shared data rules in
:mod:`repro.apps.giab.logic`.  Directory resources live in the service's
:class:`~repro.wsrf.resource.ResourceHome` like any WS-Resource.
"""

from __future__ import annotations

import itertools

from repro.addressing.epr import EndpointReference
from repro.apps.giab.common import wsrf_actions as actions
from repro.apps.giab.logic import list_directory, require_reservation_holder
from repro.apps.giab.storage import FileSystemError, SimulatedFileSystem
from repro.apps.layers.logic import LogicError
from repro.apps.layers.router import wsrf_fault
from repro.container.service import MessageContext, web_method
from repro.wsrf.basefaults import base_fault
from repro.wsrf.lifetime import ResourceLifetimeMixin
from repro.wsrf.programming import ResourceField, WsResourceService, resource_property
from repro.wsrf.properties import ResourcePropertiesMixin
from repro.xmllib import element, ns, text_of
from repro.xmllib.element import XmlElement


class WsrfDataService(
    ResourcePropertiesMixin, ResourceLifetimeMixin, WsResourceService
):
    service_name = "Data"
    resource_ns = ns.GIAB

    directory = ResourceField(str, "")

    def __init__(
        self,
        home,
        filesystem: SimulatedFileSystem,
        node_host: str,
        reservation_address: str = "",
    ):
        super().__init__(home)
        self.filesystem = filesystem
        self.node_host = node_host
        self.reservation_address = reservation_address
        self._dir_ids = itertools.count(1)

    # -- operations ---------------------------------------------------------------

    @web_method(actions.CREATE_DIRECTORY)
    def create_directory(self, context: MessageContext) -> XmlElement:
        # The service, not the client, names the directory.
        path = f"/grid/{self.node_host}/dir{next(self._dir_ids):04d}"
        self.filesystem.mkdir(path)
        epr = self.create_resource(directory=path)
        return element(f"{{{ns.GIAB}}}createDirectoryResponse", epr.to_xml())

    @web_method(actions.UPLOAD_FILE)
    def upload_file(self, context: MessageContext) -> XmlElement:
        self.current_resource
        name = text_of(context.body.find_local("FileName"))
        content_el = context.body.find_local("Content")
        if not name or content_el is None:
            raise base_fault("uploadFile needs FileName and Content")
        self._check_reservation(context)
        self.filesystem.write(self.directory, name, content_el.text())
        return element(f"{{{ns.GIAB}}}uploadFileResponse")

    @web_method(actions.DOWNLOAD_FILE)
    def download_file(self, context: MessageContext) -> XmlElement:
        self.current_resource
        name = text_of(context.body.find_local("FileName"))
        try:
            content = self.filesystem.read(self.directory, name)
        except FileSystemError as exc:
            raise base_fault(str(exc))
        return element(
            f"{{{ns.GIAB}}}downloadFileResponse",
            element(f"{{{ns.GIAB}}}Content", content, attrs={"Name": name}),
        )

    @web_method(actions.DELETE_FILE)
    def delete_file(self, context: MessageContext) -> XmlElement:
        # "The Delete File operation involves a single call in both
        # implementations" — no reservation re-check here.
        self.current_resource
        name = text_of(context.body.find_local("FileName"))
        try:
            self.filesystem.delete(self.directory, name)
        except FileSystemError as exc:
            raise base_fault(str(exc))
        return element(f"{{{ns.GIAB}}}deleteFileResponse")

    def _check_reservation(self, context: MessageContext) -> None:
        """Upload is the paper's "pair of calls": client→Data plus
        Data→Reservation to confirm the uploader holds this host."""
        if not self.reservation_address:
            return
        dn = str(context.sender) if context.sender is not None else "anonymous"
        response = context.client().invoke(
            EndpointReference.create(self.reservation_address),
            actions.CHECK_RESERVATION,
            element(
                f"{{{ns.GIAB}}}checkReservation",
                element(f"{{{ns.GIAB}}}Host", self.node_host),
                element(f"{{{ns.GIAB}}}DN", dn),
            ),
        )
        try:
            require_reservation_holder(
                response.text().strip() == "true", dn, self.node_host
            )
        except LogicError as error:
            raise wsrf_fault(error) from error

    # -- resource properties --------------------------------------------------------

    @resource_property(f"{{{ns.GIAB}}}DirectoryPath")
    def rp_directory(self):
        return self.directory

    @resource_property(f"{{{ns.GIAB}}}FileList")
    def rp_file_list(self):
        """Generated dynamically by examining the directory contents —
        "No information for individual files is actually stored as
        resources"."""
        listing = element(f"{{{ns.GIAB}}}FileList")
        for name in list_directory(self.filesystem, self.directory):
            listing.append(element(f"{{{ns.GIAB}}}File", name))
        return listing

    # -- lifetime ------------------------------------------------------------------------

    def on_resource_destroyed(self, key: str) -> None:
        """Destroy "removes a directory and its contents"."""
        document = self.home.load(key) if self.home.contains(key) else None
        if document is None:
            return
        path = text_of(document.find(f"{{{ns.WSRF_FIELDS}}}directory"))
        if path and self.filesystem.exists_dir(path):
            self.filesystem.rmdir(path)
