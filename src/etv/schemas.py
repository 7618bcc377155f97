"""JSON schemas for the interchange formats, printable via the CLI."""

RATIONAL = {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$",
            "description": "exact rational p or p/q, q > 0, lowest terms"}

COMPLEX = {"type": "object",
           "properties": {"re": RATIONAL, "im": RATIONAL},
           "required": ["re", "im"]}

VECTOR = {"type": "array", "items": RATIONAL}

CVECTOR = {"type": "array", "items": COMPLEX}

FUNCTIONAL = {"type": "object",
              "properties": {"coeffs": VECTOR, "const": RATIONAL},
              "required": ["coeffs", "const"]}

FORM = {"type": "object",
        "properties": {
            "degree": {"type": "integer", "minimum": 0},
            "terms": {"type": "array",
                      "items": {"type": "object",
                                "properties": {
                                    "indices": {"type": "array",
                                                "items": {"type": "integer"}},
                                    "value": COMPLEX},
                                "required": ["indices", "value"]}}},
        "required": ["degree"]}

HPOLY = {"type": "object",
         "properties": {"ambient": {"type": "integer", "minimum": 1},
                        "eq": {"type": "array", "items": FUNCTIONAL},
                        "ineq": {"type": "array", "items": FUNCTIONAL}},
         "required": ["ambient"]}

VPOLYTOPE = {"type": "object",
             "properties": {"vertices": {"type": "array", "items": VECTOR}},
             "required": ["vertices"]}

POLYHEDRAL_SET = {"type": "object",
                  "properties": {"cells": {"type": "array", "items": HPOLY}},
                  "required": ["cells"]}

FRAMED_SET = {"type": "object",
              "properties": {
                  "n": {"type": "integer", "minimum": 1},
                  "k": {"type": "integer", "minimum": 0},
                  "cells": {"type": "array",
                            "items": {"type": "object",
                                      "properties": {
                                          "geom": HPOLY,
                                          "frame": {"type": "object",
                                                    "properties": {
                                                        "form": FORM,
                                                        "basis": {"type": "array",
                                                                  "items": VECTOR}},
                                                    "required": ["form"]}},
                                      "required": ["geom", "frame"]}}},
              "required": ["n", "k", "cells"]}

_AFFINE = {"type": "object",
           "properties": {"w": CVECTOR, "c": RATIONAL},
           "required": ["w", "c"]}

PLFUNCTION = {"type": "object",
              "properties": {
                  "n": {"type": "integer", "minimum": 1},
                  "plus": {"type": "array", "items": _AFFINE},
                  "minus": {"type": "array", "items": _AFFINE}},
              "required": ["n", "plus"]}

TEST_FORM = {"type": "object",
             "properties": {
                 "degree": {"type": "integer", "minimum": 0},
                 "window": {"type": "array",
                            "items": {"type": "array", "items": RATIONAL,
                                      "minItems": 2, "maxItems": 2}},
                 "terms": {"type": "array",
                           "items": {"type": "object",
                                     "properties": {
                                         "indices": {"type": "array",
                                                     "items": {"type": "integer"}},
                                         "poly": {"type": "array",
                                                  "items": {"type": "object",
                                                            "properties": {
                                                                "exps": {"type": "array"},
                                                                "coeff": RATIONAL}}}}}}},
             "required": ["degree", "window"]}

VECTOR_FAMILY = {"type": "object",
                 "properties": {"n": {"type": "integer", "minimum": 1},
                                "sets": {"type": "array",
                                         "items": {"type": "array",
                                                   "items": CVECTOR}}},
                 "required": ["n", "sets"]}

ALL_SCHEMAS = {
    "rational": RATIONAL,
    "complex": COMPLEX,
    "functional": FUNCTIONAL,
    "form": FORM,
    "hpoly": HPOLY,
    "vpolytope": VPOLYTOPE,
    "polyhedral_set": POLYHEDRAL_SET,
    "framed_set": FRAMED_SET,
    "pl_function": PLFUNCTION,
    "test_form": TEST_FORM,
    "vector_family": VECTOR_FAMILY,
}
