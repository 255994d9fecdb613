"""Command-line front end for the kernel-family constructor."""

from .main import main
from .modelfile import ModelFile, ModelFileError, parse_model_file, parse_model_text
from .report import SCHEMA_VERSION, Report, render_json, render_text

__all__ = [
    "SCHEMA_VERSION",
    "ModelFile",
    "ModelFileError",
    "Report",
    "main",
    "parse_model_file",
    "parse_model_text",
    "render_json",
    "render_text",
]
