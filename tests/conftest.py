"""Shared fixtures: small documents and workload samples used across the suite."""

from __future__ import annotations

import pytest

from repro import Document
from repro.baseline import DomEngine
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.workloads import (
    generate_bio_xml,
    generate_medline_xml,
    generate_treebank_xml,
    generate_wiki_xml,
    generate_xmark_xml,
)
from repro.xmlmodel import build_model

PAPER_EXAMPLE_XML = (
    '<parts><part name="pen"><color>blue</color><stock>40</stock>Soon discontinued.</part>'
    '<part name="rubber"><stock>30</stock></part></parts>'
)

SMALL_SITE_XML = """
<site>
 <regions><europe><item id="i1"><name>Pen</name><description><parlist><listitem><text>nice
 <keyword>red</keyword> pen with <emph>gold</emph> trim</text></listitem><listitem><keyword>blue</keyword>
 </listitem></parlist></description></item></europe>
  <asia><item id="i2"><name>Rubber</name><description>Soon discontinued</description></item></asia>
 </regions>
 <people>
  <person id="p0"><name>Alice</name><phone>123</phone><profile><gender>female</gender><age>30</age></profile><watches/></person>
  <person id="p1"><name>Bob</name><homepage>http://b.example</homepage><address>Street 5</address></person>
  <person id="p2"><name>Carol</name><creditcard>999</creditcard></person>
 </people>
 <closed_auctions>
  <closed_auction><annotation><description><text><keyword>rare</keyword></text></description></annotation><date>01/01/2000</date></closed_auction>
  <closed_auction><annotation><description><text>plain</text></description></annotation><date>02/02/2000</date></closed_auction>
 </closed_auctions>
</site>
"""


@pytest.fixture()
def registry():
    """A fresh process-wide metrics registry; restores the previous one afterwards.

    Request it *before* building stores, services or servers: they bind their
    metric handles when constructed.
    """
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


@pytest.fixture(scope="session")
def paper_example_model():
    return build_model(PAPER_EXAMPLE_XML)


@pytest.fixture(scope="session")
def paper_example_document():
    return Document.from_string(PAPER_EXAMPLE_XML)


@pytest.fixture(scope="session")
def small_site_document():
    return Document.from_string(SMALL_SITE_XML)


@pytest.fixture(scope="session")
def small_site_model():
    return build_model(SMALL_SITE_XML)


@pytest.fixture(scope="session")
def xmark_xml():
    return generate_xmark_xml(scale=0.2, seed=3)


@pytest.fixture(scope="session")
def xmark_model(xmark_xml):
    return build_model(xmark_xml)


@pytest.fixture(scope="session")
def xmark_document(xmark_model):
    return Document.from_model(xmark_model)


@pytest.fixture(scope="session")
def xmark_dom(xmark_model):
    return DomEngine(xmark_model)


@pytest.fixture(scope="session")
def medline_xml():
    return generate_medline_xml(num_citations=60, seed=5)


@pytest.fixture(scope="session")
def medline_model(medline_xml):
    return build_model(medline_xml)


@pytest.fixture(scope="session")
def medline_document(medline_model):
    return Document.from_model(medline_model)


@pytest.fixture(scope="session")
def medline_dom(medline_model):
    return DomEngine(medline_model)


@pytest.fixture(scope="session")
def treebank_xml():
    return generate_treebank_xml(num_sentences=40, max_depth=9, seed=2)


@pytest.fixture(scope="session")
def treebank_document(treebank_xml):
    return Document.from_string(treebank_xml)


@pytest.fixture(scope="session")
def treebank_dom(treebank_xml):
    return DomEngine(build_model(treebank_xml))


@pytest.fixture(scope="session")
def wiki_xml():
    return generate_wiki_xml(num_pages=60, seed=9)


@pytest.fixture(scope="session")
def bio_xml():
    return generate_bio_xml(num_genes=8, promoter_length=120, exon_length=60, seed=4)
